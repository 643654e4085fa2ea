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

Attribute access is lazy (PEP 562): ``repro.blockdev.jukebox`` imports
:mod:`repro.faults.health` for the :class:`VolumeHealth` enum, and an
eager ``__init__`` here would close an import cycle back through
``repro.core``.
"""

from __future__ import annotations

_EXPORTS = {
    "VolumeHealth": "repro.faults.health",
    "HealthRegistry": "repro.faults.health",
    "EV_QUARANTINE": "repro.faults.health",
    "FaultSpec": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FaultInjector": "repro.faults.plan",
    "EV_FAULT_INJECT": "repro.faults.plan",
    "KIND_MEDIA_ERROR": "repro.faults.plan",
    "KIND_MEDIA_DEAD": "repro.faults.plan",
    "KIND_MOUNT_FAILURE": "repro.faults.plan",
    "KIND_DRIVE_TIMEOUT": "repro.faults.plan",
    "KIND_SLOW_IO": "repro.faults.plan",
    "FAULT_KINDS": "repro.faults.plan",
    "RetryClassPolicy": "repro.faults.retry",
    "RetryPolicy": "repro.faults.retry",
    "DEFAULT_CLASS_POLICIES": "repro.faults.retry",
    "CLASS_REPAIR": "repro.faults.retry",
    "EV_RETRY": "repro.faults.retry",
    "FaultManager": "repro.faults.recovery",
    "RepairDaemon": "repro.faults.repair",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.faults' has no attribute "
                             f"{name!r}")
    import importlib
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for the next access
    return value

