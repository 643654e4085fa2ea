"""Bounded, seeded, virtual-time retry with per-class deadlines.

Every retry in the system goes through :class:`RetryPolicy` (rule
HL009): a ``while True: try/except`` anywhere else hides unbounded
wall-clock-free spinning from the QoS scheduler and the health model.
The policy retries **only** :class:`~repro.errors.TransientDeviceError`;
permanent faults and programming errors propagate immediately.  Backoff
is exponential with jitter drawn from the policy's own seeded RNG and
slept in *virtual* time, so the same seed replays the same retry
timeline tick-for-tick (tested in ``tests/test_faults.py``).

Per request class the policy bounds both the attempt count and the total
virtual time (the *deadline*): demand fetches give up fast — an
application is sleeping on the block — while write-outs grind much
longer, because a staged segment pins its cache line until it lands.
When a class's budget is exhausted the last transient error is
escalated to :class:`~repro.errors.MediaFailure` (the EIO analogue) with
the attempt count stamped on it.

The policy also keeps the volume's error budget current: every failed
attempt, and a permanent failure once more, is charged to the health
registry, and a served operation clears the budget.  The Footprint runs
each of its I/O calls through the stack's policy
(:class:`~repro.footprint.robot.JukeboxFootprint`'s ``retry`` slot),
under the class the scheduler names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TypeVar

from repro import obs
from repro.errors import (MediaFailure, PermanentDeviceError,
                          TransientDeviceError)
from repro.faults.health import HealthRegistry

#: Emitted once per backoff (i.e. per failed attempt that will be retried).
EV_RETRY = obs.register_event_type("retry")

#: Request class used by the repair daemon (the scheduler's four QoS
#: classes plus this one key the per-class policy table).
CLASS_REPAIR = "repair"

T = TypeVar("T")


@dataclass(frozen=True)
class RetryClassPolicy:
    """Retry knobs for one request class."""

    max_attempts: int = 4
    base_backoff: float = 0.5     # virtual seconds before attempt 2
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    #: Total virtual-time budget per operation; None = attempts only.
    deadline: Optional[float] = 120.0


#: Demand gives up fast (an application is blocked on it); write-outs
#: may never drop data, so they grind longest.
DEFAULT_CLASS_POLICIES: Dict[str, RetryClassPolicy] = {
    "demand": RetryClassPolicy(max_attempts=4, deadline=120.0),
    "prefetch": RetryClassPolicy(max_attempts=2, deadline=60.0),
    "writeout": RetryClassPolicy(max_attempts=6, max_backoff=60.0,
                                 deadline=600.0),
    "cleaner": RetryClassPolicy(max_attempts=2, deadline=120.0),
    CLASS_REPAIR: RetryClassPolicy(max_attempts=3, deadline=300.0),
}


class RetryPolicy:
    """Runs operations under bounded seeded-backoff retry."""

    def __init__(self, seed: int = 0,
                 policies: Optional[Dict[str, RetryClassPolicy]] = None,
                 health: Optional[HealthRegistry] = None) -> None:
        self.rng = random.Random(seed)
        self.policies = dict(DEFAULT_CLASS_POLICIES)
        if policies:
            self.policies.update(policies)
        self.health = health
        #: The :class:`~repro.sched.TertiaryScheduler` that names each
        #: Footprint I/O's request class (set by ``FaultManager``).
        self.sched = None
        self.attempts = 0
        self.escalations = 0

    def policy_for(self, rclass: str) -> RetryClassPolicy:
        return self.policies.get(rclass) or RetryClassPolicy()

    def backoff(self, pol: RetryClassPolicy, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (jittered, seeded)."""
        raw = min(pol.max_backoff,
                  pol.base_backoff * pol.backoff_factor ** (attempt - 1))
        return raw * (0.5 + self.rng.random())  # jitter in [0.5x, 1.5x)

    def run(self, actor, rclass: str, op: Callable[[], T], *,
            volume_id: Optional[int] = None) -> T:
        """Execute ``op`` under this policy; returns its result.

        Transient failures back off in virtual time and retry; on
        budget exhaustion the error escalates to ``MediaFailure``.
        Each failed attempt is reported to the health registry against
        the erroring volume, a permanent failure (escalated or not) once
        more as permanent, and success clears ``volume_id``'s budget.
        """
        try:
            result = self._attempts(actor, rclass, op, volume_id)
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

    def _attempts(self, actor, rclass: str, op: Callable[[], T],
                  volume_id: Optional[int]) -> T:
        pol = self.policy_for(rclass)
        start = actor.time
        attempt = 1
        while True:
            try:
                return op()
            except TransientDeviceError as exc:
                exc.attempt = attempt
                vid = exc.volume_id if exc.volume_id is not None \
                    else volume_id
                self.attempts += 1
                obs.counter("retry_attempts_total",
                            "transient device errors absorbed by retry",
                            ("rclass",)).labels(rclass=rclass).inc()
                if self.health is not None:
                    self.health.record_error(vid, actor.time,
                                             kind=type(exc).__name__)
                out_of_attempts = attempt >= pol.max_attempts
                out_of_time = (pol.deadline is not None
                               and actor.time - start >= pol.deadline)
                if out_of_attempts or out_of_time:
                    self.escalations += 1
                    why = "attempts" if out_of_attempts else "deadline"
                    raise MediaFailure(
                        f"{rclass} retry budget exhausted ({why}): {exc}",
                        volume_id=vid, blkno=exc.blkno,
                        attempt=attempt) from exc
                delay = self.backoff(pol, attempt)
                obs.event(EV_RETRY, actor.time, rclass=rclass,
                          attempt=attempt, volume=vid,
                          backoff=round(delay, 6),
                          error=type(exc).__name__)
                actor.sleep(delay)
                attempt += 1
