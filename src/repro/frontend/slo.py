"""Per-tenant SLO reporting from a replay's measurements.

The PR 3 scheduler made Table-4-style accounting exact per request;
this module rolls those requests up into what an operator actually
signs: per-tenant p50/p99 demand latency, goodput, and two
anti-starvation indices —

* **fairness** — Jain's index over weight-normalized goodput,
  ``J = (sum x)^2 / (n * sum x^2)`` with ``x_i = goodput_i / weight_i``.
  1.0 means every tenant gets exactly its weighted share; ``1/n`` means
  one tenant took everything.
* **starvation** — ``min(x) / max(x)`` over the same normalized shares;
  0 means some tenant moved no bytes at all.

The input is what a replay measured per tenant — demand latencies and
bytes moved — so the report does not depend on the trace ring still
holding every request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = ["TenantReport", "SLOReport", "from_latencies", "percentile"]


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    data = sorted(samples)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


@dataclass
class TenantReport:
    """One tenant's observed service level."""

    tenant: str
    requests: int = 0
    demand_requests: int = 0
    bytes_moved: int = 0
    p50_seconds: float = 0.0
    p99_seconds: float = 0.0
    goodput_bytes_per_s: float = 0.0
    throttle_seconds: float = 0.0
    #: Weight-normalized goodput share (fairness input).
    normalized_share: float = 0.0


@dataclass
class SLOReport:
    """The cluster-wide SLO compliance picture over one window."""

    window_seconds: float
    per_tenant: Dict[str, TenantReport] = field(default_factory=dict)
    fairness_index: float = 1.0
    starvation_index: float = 1.0

    def render(self) -> str:
        lines = [f"SLO window: {self.window_seconds:.1f}s virtual, "
                 f"fairness={self.fairness_index:.3f}, "
                 f"starvation={self.starvation_index:.3f}"]
        for name in sorted(self.per_tenant):
            r = self.per_tenant[name]
            lines.append(
                f"  {name:12s} req={r.requests:5d} "
                f"p50={r.p50_seconds:8.3f}s p99={r.p99_seconds:8.3f}s "
                f"goodput={r.goodput_bytes_per_s / 1024:9.1f} KB/s "
                f"throttled={r.throttle_seconds:7.2f}s")
        return "\n".join(lines)


def from_latencies(latencies: Mapping[str, List[float]],
                   bytes_moved: Mapping[str, int],
                   window_seconds: float,
                   weights: Optional[Mapping[str, float]] = None
                   ) -> SLOReport:
    """Build a report straight from a replay's measurements."""
    window_seconds = max(window_seconds, 1e-9)
    report = SLOReport(window_seconds=window_seconds)
    for tenant in sorted(set(latencies) | set(bytes_moved)):
        lat = list(latencies.get(tenant, []))
        report.per_tenant[tenant] = TenantReport(
            tenant=tenant,
            requests=len(lat),
            demand_requests=len(lat),
            bytes_moved=bytes_moved.get(tenant, 0),
            p50_seconds=percentile(lat, 50.0),
            p99_seconds=percentile(lat, 99.0),
            goodput_bytes_per_s=bytes_moved.get(tenant, 0) / window_seconds,
        )
    _apply_fairness(report, weights or {})
    return report


def _apply_fairness(report: SLOReport,
                    weights: Mapping[str, float]) -> None:
    shares: List[float] = []
    for tenant, r in report.per_tenant.items():
        weight = float(weights.get(tenant, 1.0))
        r.normalized_share = r.goodput_bytes_per_s / weight
        shares.append(r.normalized_share)
    if not shares:
        return
    total = sum(shares)
    if total <= 0.0:
        report.fairness_index = 1.0
        report.starvation_index = 1.0
        return
    report.fairness_index = (total * total) \
        / (len(shares) * sum(x * x for x in shares))
    report.starvation_index = min(shares) / max(shares)
