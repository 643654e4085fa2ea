"""Fault injection and recovery for the tertiary hierarchy.

The subsystem has two halves:

* **injection** — :class:`FaultPlan` / :class:`FaultInjector`
  (:mod:`repro.faults.plan`): seeded, virtual-time-scheduled transient
  and permanent faults hooked into the jukebox and Footprint layers;
* **recovery** — the :class:`VolumeHealth` state machine and
  :class:`HealthRegistry` (:mod:`repro.faults.health`; each stack owns
  one, ``fs.health``), :class:`RetryPolicy` (:mod:`repro.faults.retry`;
  the Footprint runs every I/O under it), the :class:`FaultManager`
  that attaches both (:mod:`repro.faults.recovery`), and the
  :class:`RepairDaemon` (:mod:`repro.faults.repair`).

See docs/FAULTS.md for the fault model and the health state machine.
"""

from repro.faults.health import EV_QUARANTINE, HealthRegistry, VolumeHealth
from repro.faults.plan import (EV_FAULT_INJECT, FAULT_KINDS, KIND_DRIVE_TIMEOUT,
                               KIND_MEDIA_DEAD, KIND_MEDIA_ERROR,
                               KIND_MOUNT_FAILURE, KIND_SLOW_IO, FaultInjector,
                               FaultPlan, FaultSpec)
from repro.faults.recovery import FaultManager
from repro.faults.repair import RepairDaemon
from repro.faults.retry import (CLASS_REPAIR, DEFAULT_CLASS_POLICIES, EV_RETRY,
                                RetryClassPolicy, RetryPolicy)

__all__ = [
    "CLASS_REPAIR", "DEFAULT_CLASS_POLICIES", "EV_FAULT_INJECT",
    "EV_QUARANTINE", "EV_RETRY", "FAULT_KINDS", "KIND_DRIVE_TIMEOUT",
    "KIND_MEDIA_DEAD", "KIND_MEDIA_ERROR", "KIND_MOUNT_FAILURE",
    "KIND_SLOW_IO", "FaultInjector", "FaultManager", "FaultPlan",
    "FaultSpec", "HealthRegistry", "RepairDaemon", "RetryClassPolicy",
    "RetryPolicy", "VolumeHealth",
]
