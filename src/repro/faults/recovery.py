"""The recovery side's wiring facade.

:class:`FaultManager` assembles the subsystem onto a
:class:`~repro.core.highlight.HighLightFS`: a retry policy, an optional
injector from a :class:`~repro.faults.plan.FaultPlan`, and the repair
daemon, all charging the stack's one health registry (``fs.health``).
It wraps nothing: ``fs.footprint`` stays the Footprint, which runs
every read and write under the policy in its ``retry`` slot, for the
request class the :class:`~repro.sched.TertiaryScheduler` names (demand
fetches give up fast, write-outs grind).  Because *all* tertiary I/O —
the I/O server's fetches and write-outs, replica and repair copies —
flows through ``fs.footprint``, one slot covers every path.  The
degraded-read fallback — a demand fetch whose copy fails permanently is
re-served from the next healthy replica before the caller ever sees
``MediaFailure`` — lives in
:meth:`repro.core.ioserver.IOServer.read_closest`, which sees the
quarantine the policy records.  With no plan and no faults occurring,
none of this adds virtual time or trace events: the golden quickstart
trace is byte-identical.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.repair import RepairDaemon
from repro.faults.retry import RetryPolicy


class FaultManager:
    """Wires injection + recovery into an assembled ``HighLightFS``.

    Constructing it attaches it: the injector goes into the jukebox's
    ``fault_injector`` slot, the retry policy into the Footprint's
    ``retry`` slot, and ``fs.faults`` is set.
    """

    def __init__(self, fs, plan: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.fs = fs
        self.health = fs.health
        if retry is None:
            retry = RetryPolicy(seed=fs.config.fault_retry_seed)
        retry.health = fs.health
        retry.sched = fs.sched
        self.retry = retry
        self.injector = (FaultInjector(plan, health=fs.health)
                         if plan is not None else None)
        self.repair = RepairDaemon(fs)
        if self.injector is not None:
            fs.footprint.jukebox.fault_injector = self.injector
        fs.footprint.retry = retry
        fs.faults = self
