"""The recovery side: retrying Footprint wrapper and the wiring facade.

:class:`RecoveringFootprint` is a drop-in Footprint decorator: every
read/write runs under the :class:`~repro.faults.retry.RetryPolicy` for
the request class currently executing in the
:class:`~repro.sched.TertiaryScheduler` (demand fetches give up fast,
write-outs grind), and every permanent fault is charged once to the
:class:`~repro.faults.health.HealthRegistry` so the volume's error
budget and quarantine state stay current.  Because *all* tertiary I/O —
the I/O server's fetches and write-outs, replica and repair copies —
flows through ``fs.footprint``, wrapping here covers every path with
one decorator.

:class:`FaultManager` assembles the whole subsystem onto a
:class:`~repro.core.highlight.HighLightFS`: health registry, retry
policy (knobs from ``HighLightConfig``), optional injector from a
:class:`~repro.faults.plan.FaultPlan`, and the repair daemon.  It
patches no method: the degraded-read fallback — a demand fetch whose
copy fails permanently is re-served from the next healthy replica
before the caller ever sees ``MediaFailure`` — lives in
:meth:`repro.core.ioserver.IOServer.read_closest`, which sees the
quarantine this layer records.  With no plan and no faults occurring,
none of this adds virtual time or trace events: the golden quickstart
trace is byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, List, Optional

from repro.errors import PermanentDeviceError
from repro.faults.health import HealthRegistry
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.repair import RepairDaemon
from repro.faults.retry import (DEFAULT_CLASS_POLICIES, RetryPolicy)


class RecoveringFootprint:
    """Footprint decorator adding retry + health reporting.

    Duck-typed to :class:`~repro.footprint.interface.FootprintInterface`
    (inventory, I/O, ``mark_full``, ``pin_write_drive``) and transparent
    to attribute probes like ``footprint.jukebox`` that the replica
    manager uses.
    """

    def __init__(self, inner, retry: RetryPolicy,
                 health: Optional[HealthRegistry] = None,
                 class_provider: Optional[Callable[[], str]] = None) -> None:
        self.inner = inner
        self.retry = retry
        self.health = health
        self._class_provider = class_provider
        self._forced_class: List[str] = []

    # -- plumbing ------------------------------------------------------------

    @property
    def jukebox(self):
        return getattr(self.inner, "jukebox", None)

    @contextmanager
    def request_class(self, rclass: str):
        """Force a request class for the enclosed I/O (repair daemon)."""
        self._forced_class.append(rclass)
        try:
            yield self
        finally:
            self._forced_class.pop()

    def _rclass(self) -> str:
        if self._forced_class:
            return self._forced_class[-1]
        if self._class_provider is not None:
            return self._class_provider()
        return "demand"

    def _run(self, actor, volume_id: int, op):
        try:
            result = self.retry.run(actor, self._rclass(), op,
                                    volume_id=volume_id)
        except PermanentDeviceError as exc:
            if self.health is not None:
                vid = exc.volume_id if exc.volume_id is not None \
                    else volume_id
                self.health.record_error(vid, actor.time, permanent=True,
                                         kind=type(exc).__name__)
            raise
        # The error budget counts consecutive failures: a served I/O
        # clears it (and un-degrades the volume).
        if self.health is not None:
            self.health.record_success(volume_id)
        return result

    # -- the Footprint surface -----------------------------------------------

    def volumes(self):
        return self.inner.volumes()

    def volume_info(self, volume_id: int):
        return self.inner.volume_info(volume_id)

    def read(self, actor, volume_id: int, blkno: int, nblocks: int):
        return self._run(actor, volume_id,
                         lambda: self.inner.read(actor, volume_id, blkno,
                                                 nblocks))

    def write(self, actor, volume_id: int, blkno: int, data) -> None:
        self._run(actor, volume_id,
                  lambda: self.inner.write(actor, volume_id, blkno, data))

    def read_refs(self, actor, volume_id: int, blkno: int, nblocks: int):
        return self._run(actor, volume_id,
                         lambda: self.inner.read_refs(actor, volume_id,
                                                      blkno, nblocks))

    def write_refs(self, actor, volume_id: int, blkno: int, refs) -> None:
        self._run(actor, volume_id,
                  lambda: self.inner.write_refs(actor, volume_id, blkno,
                                                refs))

    def mark_full(self, volume_id: int) -> None:
        self.inner.mark_full(volume_id)

    def pin_write_drive(self, volume_id: int) -> None:
        self.inner.pin_write_drive(volume_id)


class FaultManager:
    """Wires injection + recovery into an assembled ``HighLightFS``.

    Constructing it attaches it: the injector goes into the jukebox's
    and the Footprint's ``fault_injector`` slots, ``fs.footprint`` is
    wrapped in a :class:`RecoveringFootprint`, and ``fs.faults`` is set.
    A :class:`~repro.persist.PersistManager` already on the stack lends
    its health registry, so the stack keeps one.
    """

    def __init__(self, fs, plan: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 error_budget: Optional[int] = None) -> None:
        self.fs = fs
        config = fs.config
        jukebox = getattr(fs.footprint, "jukebox", None)
        if fs.persist is not None:
            self.health = fs.persist.health
            if error_budget is not None:
                self.health.error_budget = error_budget
        else:
            self.health = (HealthRegistry() if error_budget is None
                           else HealthRegistry(error_budget=error_budget))
            self.health.attach(jukebox)
        if retry is None:
            retry = RetryPolicy(
                seed=getattr(config, "fault_retry_seed", 0),
                policies=self._policies_from_config(config))
        retry.health = self.health
        self.retry = retry
        self.injector = (FaultInjector(plan, health=self.health)
                         if plan is not None else None)
        self.repair = RepairDaemon(fs, self.health)
        if self.injector is not None:
            if jukebox is not None:
                jukebox.fault_injector = self.injector
            if hasattr(fs.footprint, "fault_injector"):
                fs.footprint.fault_injector = self.injector
        sched = fs.sched

        def active_class() -> str:
            return sched.active_class if sched is not None else "demand"

        fs.footprint = RecoveringFootprint(fs.footprint, self.retry,
                                           health=self.health,
                                           class_provider=active_class)
        fs.faults = self

    @staticmethod
    def _policies_from_config(config):
        """Per-class table with any config-level overrides applied."""
        overrides = {}
        attempts = getattr(config, "fault_max_attempts", None)
        if attempts is not None:
            overrides["max_attempts"] = attempts
        base = getattr(config, "fault_backoff_base", None)
        if base is not None:
            overrides["base_backoff"] = base
        if not overrides:
            return None
        return {rclass: replace(pol, **overrides)
                for rclass, pol in DEFAULT_CLASS_POLICIES.items()}
