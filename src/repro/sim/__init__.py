"""Deterministic virtual-time simulation kernel.

The paper's system is a 4.4BSD kernel plus three user-level processes
(service process, I/O server, migrator) sharing SCSI buses and disk arms.
This package replaces wall-clock concurrency with a deterministic model:

* an :class:`~repro.sim.actor.Actor` owns a *local* virtual clock,
* a :class:`~repro.sim.resources.TimelineResource` (a disk arm, a SCSI bus, a robot picker)
  serialises occupancy windows across actors,
* a :class:`~repro.sim.scheduler.Scheduler` interleaves generator-based tasks, always advancing
  the task whose actor's clock is furthest behind, which reproduces
  contention effects (e.g. Table 6's disk-arm contention) reproducibly.

All times are float seconds of virtual time.
"""
