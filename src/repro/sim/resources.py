"""Timeline resources: serially-reusable hardware shared between actors.

A :class:`TimelineResource` models anything only one operation can use at a
time — a disk arm, a SCSI bus, a jukebox robot picker, a tape drive head.
Occupancy is a window ``[start, end)`` on the virtual timeline; an actor
asking to occupy a resource is pushed out to ``max(actor.time,
resource.next_free)``, which is exactly how arm contention between the
migrator and the I/O server shows up in Table 6, and how the
non-disconnecting autochanger "hogs" the SCSI bus during media swaps
(paper section 7).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.sim.actor import Actor


class TimelineResource:
    """A serially-reusable resource with utilisation accounting."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.next_free = 0.0
        self.busy_seconds = 0.0
        self.op_count = 0

    def occupy(self, actor: Actor, duration: float) -> Tuple[float, float]:
        """Occupy the resource for ``duration`` seconds on behalf of ``actor``.

        Returns the ``(start, end)`` window.  The actor's clock is advanced
        to ``end`` — the operation is synchronous from the actor's point of
        view.
        """
        if duration < 0:
            raise ValueError("occupancy duration must be non-negative")
        start = max(actor.time, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_seconds += duration
        self.op_count += 1
        actor.sleep_until(end)
        return start, end


def occupy_all(actor: Actor, resources: Iterable[TimelineResource],
               duration: float) -> Tuple[float, float]:
    """Occupy several resources simultaneously (e.g. SCSI bus + disk arm).

    The operation starts when the actor *and every resource* are free and
    holds all of them for its full duration; this models a non-disconnecting
    SCSI transaction.
    """
    if duration < 0:
        raise ValueError("occupancy duration must be non-negative")
    resources = list(resources)
    start = actor.time
    for resource in resources:
        start = max(start, resource.next_free)
    end = start + duration
    for resource in resources:
        resource.next_free = end
        resource.busy_seconds += duration
        resource.op_count += 1
    actor.sleep_until(end)
    return start, end
