"""Snapshot rendering: one combined metrics + trace view per run.

The bench harness calls :func:`write_snapshot` after every benchmark so
each run leaves a machine-readable record of what the system did —
per-device I/O, cache behaviour, robot activity, and the full event
trace — alongside the human-facing table output.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro import obs
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder

__all__ = ["snapshot", "write_snapshot"]


def snapshot(metrics: Optional[MetricsRegistry] = None,
             trace: Optional[TraceRecorder] = None,
             include_events: bool = True,
             header: Optional[Dict[str, object]] = None
             ) -> Dict[str, object]:
    """One plain-dict view of the registry and the trace ring.

    ``header`` — run provenance (scenario name, seed, quick flag, ...)
    recorded verbatim under the snapshot's ``header`` key, so a stored
    snapshot says *which* seeded run produced it.
    """
    if metrics is None:
        obs.flush()  # publish lazily-accumulated deltas before reading
        metrics = obs.metrics()
    trace = trace if trace is not None else obs.trace()
    out: Dict[str, object] = {}
    if header:
        out["header"] = dict(header)
    out["metrics"] = metrics.snapshot()
    trace_section: Dict[str, object] = {
        "emitted": trace.emitted,
        "dropped": trace.dropped,
        "counts_by_type": trace.counts_by_type(),
    }
    if include_events:
        trace_section["events"] = trace.to_list()
    out["trace"] = trace_section
    return out


def write_snapshot(path: str,
                   metrics: Optional[MetricsRegistry] = None,
                   trace: Optional[TraceRecorder] = None,
                   include_events: bool = True,
                   header: Optional[Dict[str, object]] = None) -> str:
    """Write a JSON snapshot; creates parent directories; returns path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    snap = snapshot(metrics, trace, include_events, header=header)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
