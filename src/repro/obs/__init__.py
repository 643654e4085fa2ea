"""Unified observability: a metrics registry plus an event trace.

One process-wide :class:`~repro.obs.registry.MetricsRegistry` and one
:class:`~repro.obs.trace.TraceRecorder` observe the whole stack — block
devices, the buffer cache, the cleaner, the migrator, the I/O server,
the service process, and the jukebox robot all record through the
module-level helpers here.  ``TimeAccount`` mirrors its charges into
the same registry, so one snapshot (:mod:`repro.obs.report`) covers
everything a run did.

Usage from a hot path — resolve the series once, keep it, record on
it (the child ``.labels(...)`` returns stays *the* series for those
labels across :func:`reset`, and shows up in snapshots from its first
record, not from this line)::

    from repro import obs

    class IOServer:
        def __init__(self):
            self._fetched = obs.counter(
                "ioserver_segments_fetched_total",
                "segments read from tertiary", ("kind",)).labels(
                    kind="demand")

        def fetch(self, actor, tsegno):
            ...
            self._fetched.inc()
            obs.event(obs.EV_SEGMENT_FETCH, actor.time, tsegno=tsegno)

A rare path may still look the family up where it records
(``obs.counter("x_total").inc()``); both forms land in the same series.

Both sinks are bounded (the trace is a ring buffer; metric families cap
their label cardinality) and can be disabled for zero-cost operation.
Benchmarks call :func:`reset` between runs so every dump describes one
run only.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.registry import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                                MetricError, MetricFamily, MetricsRegistry)
from repro.obs.trace import (BASE_EVENT_TYPES, EVENT_TYPES, EV_CACHE_EJECT,
                             EV_CLEAN_PASS, EV_MIGRATE_PICK, EV_SEGMENT_FETCH,
                             EV_SEGMENT_WRITEOUT, EV_VOLUME_SWITCH,
                             TraceError, TraceEvent, TraceRecorder,
                             register_event_type)

__all__ = [
    "MetricsRegistry", "MetricFamily", "Counter", "Gauge", "Histogram",
    "MetricError", "DEFAULT_BUCKETS",
    "TraceRecorder", "TraceEvent", "TraceError",
    "BASE_EVENT_TYPES", "EVENT_TYPES",
    "register_event_type",
    "EV_SEGMENT_FETCH", "EV_SEGMENT_WRITEOUT", "EV_CACHE_EJECT",
    "EV_CLEAN_PASS", "EV_MIGRATE_PICK", "EV_VOLUME_SWITCH",
    "metrics", "trace",
    "counter", "gauge", "histogram", "event",
    "enable", "disable", "reset",
    "register_flusher", "flush",
]

# One registry for the life of the process, never swapped: call sites
# hold series of it.
_metrics = MetricsRegistry()
_trace = TraceRecorder()


# -- the process-wide instances ---------------------------------------------

def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _metrics


def trace() -> TraceRecorder:
    """The process-wide trace recorder."""
    return _trace


# -- recording shortcuts (what the hot paths call) --------------------------

def counter(name: str, help: str = "",
            labelnames: Tuple[str, ...] = ()) -> MetricFamily:
    return _metrics.counter(name, help, labelnames)


def gauge(name: str, help: str = "",
          labelnames: Tuple[str, ...] = ()) -> MetricFamily:
    return _metrics.gauge(name, help, labelnames)


def histogram(name: str, help: str = "",
              labelnames: Tuple[str, ...] = (),
              buckets: Optional[Tuple[float, ...]] = None) -> MetricFamily:
    return _metrics.histogram(name, help, labelnames, buckets)


def event(etype: str, t: float, **fields: object) -> Optional[TraceEvent]:
    """Emit one trace event stamped with virtual time ``t``."""
    return _trace.emit(etype, t, **fields)


# -- lazy publication -------------------------------------------------------
#
# Hot paths that cannot afford even a bound series' method call per
# record (e.g. the datapath copy ledger) accumulate into a plain
# process-local variable and register a *flusher* here; the pending
# delta is published into the registry right before anyone looks at it
# (snapshot) or wipes it (reset), so readers never observe a stale
# metric.

_flushers: list = []


def register_flusher(fn) -> None:
    """Register a callback that publishes lazily-accumulated counts into
    the registry.  Idempotent; flushers run before every snapshot and
    reset."""
    if fn not in _flushers:
        _flushers.append(fn)


def flush() -> None:
    """Run every registered flusher (pre-snapshot/pre-reset hook)."""
    for fn in list(_flushers):
        fn()


# -- lifecycle --------------------------------------------------------------

def enable() -> None:
    _metrics.enable()
    _trace.enabled = True


def disable() -> None:
    """Turn both sinks off (recording becomes a cheap no-op)."""
    _metrics.disable()
    _trace.enabled = False


def reset() -> None:
    """Zero all metrics and drop all events (run-boundary hygiene)."""
    # Pending lazily-accumulated deltas belong to the run being wiped:
    # publish them first so they die with the reset instead of leaking
    # into the next run's counters.
    flush()
    _metrics.reset()
    _trace.clear()
