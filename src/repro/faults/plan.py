"""Deterministic fault injection: plans, the injector, device wrapping.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries
— *what* goes wrong, *where*, and *when* — plus a seed.  The
:class:`FaultInjector` evaluates the plan at the I/O and mount hooks the
jukebox/Footprint layer exposes, spending virtual time (never wall
clock) and raising the matching :class:`~repro.errors.DeviceError`
subclass.  All randomness comes from one ``random.Random(seed)``, so a
given plan over a given workload produces the same fault timeline every
run — chaos tests are replayable bug reports.

Fault kinds:

``media_error``
    One read/write fails with :class:`~repro.errors.TransientMediaError`;
    a retry is expected to succeed.
``media_dead``
    The medium is destroyed: the volume's health drops to QUARANTINED
    and the I/O raises :class:`~repro.errors.MediaFailure`.
``mount_failure``
    The robot fails to seat the volume
    (:class:`~repro.errors.MountFailure`), charging ``delay`` virtual
    seconds of wasted picker motion first.
``drive_timeout``
    The drive hangs for ``delay`` virtual seconds, then the request
    fails with :class:`~repro.errors.DriveTimeout`.
``slow_io``
    A "limping" device: every matching I/O in the window pays ``delay``
    extra virtual seconds but succeeds (no error raised).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.errors import (DriveTimeout, MediaFailure, MountFailure,
                          TransientMediaError)
from repro.faults.health import HealthRegistry

#: Emitted once per injected fault (slow-I/O delays included).
EV_FAULT_INJECT = obs.register_event_type("fault_inject")

KIND_MEDIA_ERROR = "media_error"
KIND_MEDIA_DEAD = "media_dead"
KIND_MOUNT_FAILURE = "mount_failure"
KIND_DRIVE_TIMEOUT = "drive_timeout"
KIND_SLOW_IO = "slow_io"

FAULT_KINDS = (KIND_MEDIA_ERROR, KIND_MEDIA_DEAD, KIND_MOUNT_FAILURE,
               KIND_DRIVE_TIMEOUT, KIND_SLOW_IO)


@dataclass
class FaultSpec:
    """One planned fault (or family of probabilistic faults)."""

    kind: str
    #: Volume the fault targets; None matches any volume.
    volume_id: Optional[int] = None
    #: Virtual time at which the spec arms.
    at: float = 0.0
    #: Virtual time at which the spec disarms; None = never.
    until: Optional[float] = None
    #: How many times the spec may fire before expiring (``slow_io``
    #: ignores this and stays armed for its whole window).
    count: int = 1
    #: Per-opportunity firing probability (1.0 = every matching op).
    probability: float = 1.0
    #: Restrict to one operation: "read", "write", or None for both.
    op: Optional[str] = None
    #: Extra virtual seconds: wasted picker motion (mount_failure),
    #: hang before the timeout (drive_timeout), per-op drag (slow_io).
    delay: float = 0.0
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def expired(self, now: float) -> bool:
        if self.until is not None and now > self.until:
            return True
        return self.kind != KIND_SLOW_IO and self.fired >= self.count

    def matches(self, now: float, volume_id: Optional[int],
                op: Optional[str]) -> bool:
        if self.expired(now) or now < self.at:
            return False
        if self.volume_id is not None and volume_id != self.volume_id:
            return False
        if self.op is not None and op is not None and op != self.op:
            return False
        return True


class FaultPlan:
    """A seed plus an ordered list of :class:`FaultSpec` entries."""

    def __init__(self, seed: int = 0,
                 specs: Optional[List[FaultSpec]] = None) -> None:
        self.seed = seed
        self.specs: List[FaultSpec] = list(specs or [])

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the device layer's hook points.

    :class:`~repro.faults.recovery.FaultManager`'s constructor places it
    in ``jukebox.fault_injector``, the one slot both the jukebox (mount
    hook) and its Footprint (I/O hook) consult.  Disabled injectors (``enabled = False``) are inert, and an absent
    injector costs the hot path one attribute test — the golden trace
    with faults off is byte-identical.
    """

    def __init__(self, plan: FaultPlan,
                 health: Optional[HealthRegistry] = None) -> None:
        self.plan = plan
        self.health = health
        self.rng = random.Random(plan.seed)
        self.enabled = True
        self.injected = 0

    # -- bookkeeping ---------------------------------------------------------

    def _fire(self, spec: FaultSpec, t: float,
              volume_id: Optional[int]) -> None:
        spec.fired += 1
        self.injected += 1
        obs.counter("fault_injected_total",
                    "faults injected by the fault plan",
                    ("kind",)).labels(kind=spec.kind).inc()
        obs.event(EV_FAULT_INJECT, t, kind=spec.kind, volume=volume_id)

    def _armed(self, now: float, volume_id: Optional[int],
               op: Optional[str]) -> List[FaultSpec]:
        if not self.enabled:
            return []
        out = []
        for spec in self.plan.specs:
            if not spec.matches(now, volume_id, op):
                continue
            if spec.probability < 1.0 and \
                    self.rng.random() >= spec.probability:
                continue
            out.append(spec)
        return out

    # -- the hooks -----------------------------------------------------------

    def on_mount(self, actor, volume_id: int) -> None:
        """Called by the jukebox before an actual media swap."""
        for spec in self._armed(actor.time, volume_id, "mount"):
            if spec.kind != KIND_MOUNT_FAILURE:
                continue
            if spec.delay > 0.0:
                actor.sleep(spec.delay)  # the picker's wasted trip
            self._fire(spec, actor.time, volume_id)
            raise MountFailure(
                f"robot failed to seat volume {volume_id}",
                volume_id=volume_id)

    def on_io(self, actor, op: str, volume_id: Optional[int],
              blkno: int, nblocks: int) -> None:
        """Called before each read/write reaches the drive/device."""
        for spec in self._armed(actor.time, volume_id, op):
            if spec.kind == KIND_SLOW_IO:
                if spec.delay > 0.0:
                    actor.sleep(spec.delay)
                self._fire(spec, actor.time, volume_id)
            elif spec.kind == KIND_DRIVE_TIMEOUT:
                if spec.delay > 0.0:
                    actor.sleep(spec.delay)  # the hang before the timeout
                self._fire(spec, actor.time, volume_id)
                raise DriveTimeout(
                    f"drive timed out during {op}",
                    volume_id=volume_id, blkno=blkno)
            elif spec.kind == KIND_MEDIA_ERROR:
                self._fire(spec, actor.time, volume_id)
                raise TransientMediaError(
                    f"transient media error during {op}",
                    volume_id=volume_id, blkno=blkno)
            elif spec.kind == KIND_MEDIA_DEAD:
                self._fire(spec, actor.time, volume_id)
                # The medium itself is gone: fence it under that reason.
                # The error is charged once, by whoever observes the
                # MediaFailure below (the retry policy), not here too.
                if self.health is not None and volume_id is not None:
                    self.health.quarantine(volume_id, actor.time,
                                           reason=KIND_MEDIA_DEAD)
                raise MediaFailure(
                    f"medium destroyed during {op}",
                    volume_id=volume_id, blkno=blkno)

