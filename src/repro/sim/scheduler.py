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

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import ReproError
from repro.sim.actor import Actor


#: Sentinel a task yields when it cannot make progress yet.
WAIT = object()


class DeadlockError(ReproError):
    """Every live task is waiting; nothing can ever run again."""


class _Task:
    __slots__ = ("actor", "gen", "finished", "waiting", "order")

    def __init__(self, actor: Actor, gen: Generator[Any, None, None],
                 order: int) -> None:
        self.actor = actor
        self.gen = gen
        self.finished = False
        self.waiting = False
        self.order = order


class Scheduler:
    """Runs a set of (actor, generator) tasks to completion."""

    def __init__(self) -> None:
        self._tasks: List[_Task] = []

    def add(self, actor: Actor,
            task: Generator[Any, None, None]
            | Callable[[], Generator[Any, None, None]]) -> None:
        """Register a task.  ``task`` may be a generator or a factory."""
        gen = task() if callable(task) else task
        self._tasks.append(_Task(actor, gen, order=len(self._tasks)))

    def run(self, max_steps: int = 50_000_000) -> None:
        """Interleave all tasks until every one finishes."""
        steps = 0
        while True:
            candidates = [t for t in self._tasks if not t.finished and not t.waiting]
            if not candidates:
                live = [t for t in self._tasks if not t.finished]
                if not live:
                    return
                raise DeadlockError(
                    "all live tasks are waiting: "
                    + ", ".join(t.actor.name for t in live))
            task = min(candidates, key=lambda t: (t.actor.time, t.order))
            try:
                result = next(task.gen)
            except StopIteration:
                task.finished = True
                self._unpark()
                continue
            if result is WAIT:
                task.waiting = True
            else:
                self._unpark()
            steps += 1
            if steps > max_steps:
                raise ReproError(f"scheduler exceeded {max_steps} steps")

    def _unpark(self) -> None:
        for task in self._tasks:
            task.waiting = False


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
