"""A conservative multi-actor scheduler for generator-based tasks.

Tasks are Python generators; each ``yield`` marks a scheduling point (the
task just completed one logical step, typically one I/O).  The scheduler
always resumes the ready task whose actor's local clock is smallest, which
guarantees that occupancy windows on shared resources are claimed in
globally non-decreasing time order — the standard conservative
discrete-event discipline — so contention results are deterministic and
independent of task creation order beyond explicit tie-breaking.

Yielding :data:`WAIT` parks the task until any *other* task has stepped;
if every live task is parked the run is deadlocked and we raise.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import ReproError
from repro.sim.actor import Actor


#: Sentinel a task yields when it cannot make progress yet.
WAIT = object()

#: What a finished task's step returns.
_DONE = object()


class DeadlockError(ReproError):
    """Every live task is waiting; nothing can ever run again."""


#: A runnable task: ``(clock when pushed, order, actor, generator)``.
#: ``order`` is unique, so entries never compare past it.
_Entry = Tuple[float, int, Actor, Generator[Any, None, None]]


class Scheduler:
    """Runs a set of (actor, generator) tasks to completion.

    Runnable tasks wait in a heap keyed by ``(clock, order)``.  A clock
    only moves forward — its own task's steps, or another task on the
    same actor, advance it — so a pushed key is a lower bound: an entry
    popped with a stale clock is pushed back with its current one, and
    the first entry popped fresh is the smallest ready task.
    """

    def __init__(self) -> None:
        self._ready: List[_Entry] = []
        self._parked: List[_Entry] = []
        self._added = 0

    def add(self, actor: Actor,
            task: Generator[Any, None, None]
            | Callable[[], Generator[Any, None, None]]) -> None:
        """Register a task.  ``task`` may be a generator or a factory."""
        gen = task() if callable(task) else task
        heapq.heappush(self._ready, (actor.time, self._added, actor, gen))
        self._added += 1

    def run(self, max_steps: int = 50_000_000) -> None:
        """Interleave all tasks until every one finishes."""
        ready, parked = self._ready, self._parked
        push, pop = heapq.heappush, heapq.heappop
        steps = 0
        while ready:
            entry = pop(ready)
            when, order, actor, gen = entry
            if actor.time != when:
                push(ready, (actor.time, order, actor, gen))
                continue
            try:
                result = next(gen)
            except StopIteration:
                result = _DONE
            if result is WAIT:
                parked.append(entry)
            else:
                if parked:  # progress: every parked task may run again
                    for _when, other, other_actor, other_gen in parked:
                        push(ready, (other_actor.time, other, other_actor,
                                     other_gen))
                    parked.clear()
                if result is _DONE:
                    continue
                push(ready, (actor.time, order, actor, gen))
            steps += 1
            if steps > max_steps:
                raise ReproError(f"scheduler exceeded {max_steps} steps")
        if parked:
            raise DeadlockError(
                "all live tasks are waiting: " + ", ".join(
                    actor.name for _t, _o, actor, _g in sorted(
                        parked, key=itemgetter(1))))


class TimedQueue:
    """A FIFO queue whose items carry the virtual time they became ready.

    The migrator hands completed staging segments to the I/O server through
    one of these; the consumer's clock is advanced to the item's ready time
    so a consumer can never act on data "before" it exists.
    """

    def __init__(self, name: str = "queue") -> None:
        self.name = name
        self._items: Deque[Tuple[float, Any]] = deque()
        self.wait_seconds = 0.0  # consumer idle time attributable to the queue

    def __len__(self) -> int:
        return len(self._items)

    def put(self, actor: Actor, item: Any) -> None:
        """Enqueue ``item``, stamped ready at the producer's current time."""
        self._items.append((actor.time, item))

    def get(self, actor: Actor) -> Optional[Any]:
        """Dequeue the oldest item, or return None if the queue is empty.

        Advances the consumer's clock to the item's ready time and charges
        the idle gap to :attr:`wait_seconds`.
        """
        if not self._items:
            return None
        ready, item = self._items.popleft()
        if ready > actor.time:
            self.wait_seconds += ready - actor.time
            actor.sleep_until(ready)
        return item
