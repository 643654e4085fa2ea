"""Deterministic virtual-time simulation kernel.

The paper's system is a 4.4BSD kernel plus three user-level processes
(service process, I/O server, migrator) sharing SCSI buses and disk arms.
This package replaces wall-clock concurrency with a deterministic model:

* an :class:`Actor` owns a *local* virtual clock,
* a :class:`TimelineResource` (a disk arm, a SCSI bus, a robot picker)
  serialises occupancy windows across actors,
* a :class:`Scheduler` interleaves generator-based tasks, always advancing
  the task whose actor's clock is furthest behind, which reproduces
  contention effects (e.g. Table 6's disk-arm contention) reproducibly.

All times are float seconds of virtual time.
"""

from repro.sim.clock import VirtualClock
from repro.sim.resources import TimelineResource, occupy_all
from repro.sim.actor import Actor, TimeAccount
from repro.sim.scheduler import Scheduler, WAIT, TimedQueue

__all__ = [
    "VirtualClock",
    "TimelineResource",
    "occupy_all",
    "Actor",
    "TimeAccount",
    "Scheduler",
    "WAIT",
    "TimedQueue",
]
