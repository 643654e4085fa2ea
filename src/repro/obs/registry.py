"""A process-wide metrics registry: counters, gauges, and histograms.

The paper's evaluation attributes every second and byte to a phase
(Tables 1-6); production hierarchy managers do the same continuously.
This registry is the single sink those numbers flow into: hot paths
record through it, :mod:`repro.obs.report` renders it, and the bench
harness dumps it next to every run's results.

Design points:

* **Families + labels.**  ``registry.counter("device_io_bytes_total",
  labelnames=("device", "op")).labels(device="rz57", op="read").inc(n)``.
  A family is created once per name; children are memoised per label
  tuple.  Label cardinality is capped per family so a bug in a hot path
  cannot silently grow an unbounded series set.
* **Bound series.**  The child ``.labels(...)`` returns *is* the series
  for that label tuple for the registry's lifetime: a per-block call
  site resolves it once, keeps it, and pays one method call per record.
  ``reset()`` therefore never drops children — it bumps the registry's
  ``epoch``; a child zeroes itself on its first record in a new epoch,
  and every reader (``snapshot``/``get``/``counter_samples``/``series``)
  sees only children recorded in the current epoch.  So a series appears
  at its first record — never at bind time — whichever way it is
  reached, and a bound child can never count into an object no snapshot
  sees.
* **Zero-cost when disabled.**  Every record call checks one boolean on
  the owning registry and returns immediately when it is off; no label
  resolution, no allocation.
* **Deterministic snapshots.**  ``snapshot()`` renders to plain dicts
  with sorted series keys, so two identical runs produce byte-identical
  JSON — which is what the golden-trace tests rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default latency buckets (seconds of virtual time): the interesting
#: range spans sub-millisecond disk chunks to multi-minute robot swaps.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)


class MetricError(ValueError):
    """Misuse of the metrics API (bad labels, kind clash, cardinality)."""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_registry", "_epoch", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        # Registry epoch of the last record; negative = none yet
        # (``~e``: made by ``labels()`` in epoch ``e``).
        self._epoch = -1
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        if self._epoch != registry.epoch:
            self._epoch = registry.epoch
            self.value = 0.0
        self.value += amount


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("_registry", "_epoch", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._epoch = -1
        self.value = 0.0

    def set(self, value: float) -> None:
        registry = self._registry
        if registry.enabled:
            self._epoch = registry.epoch
            self.value = float(value)


class Histogram:
    """A fixed-bucket distribution with sum and count."""

    __slots__ = ("_registry", "_epoch", "buckets", "counts", "sum", "count")

    def __init__(self, registry: "MetricsRegistry",
                 buckets: Tuple[float, ...]) -> None:
        self._registry = registry
        self._epoch = -1
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        if self._epoch != registry.epoch:
            self._epoch = registry.epoch
            self.counts = [0] * len(self.counts)
            self.sum = 0.0
            self.count = 0
        self.sum += value
        self.count += 1
        # First bucket whose bound is >= value; past the last = +Inf.
        self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative(self) -> Dict[str, int]:
        """Bucket upper bound -> cumulative count (Prometheus ``le`` form)."""
        out: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out[repr(bound)] = running
        out["+Inf"] = running + self.counts[-1]
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All series of one metric name, keyed by label values."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str = "", labelnames: Tuple[str, ...] = (),
                 buckets: Optional[Tuple[float, ...]] = None,
                 max_series: int = 1024) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self.max_series = max_series
        self._children: Dict[Tuple[str, ...], object] = {}
        self._default_child: Optional[object] = None

    def labels(self, **labelvalues: object) -> Any:
        """The child series for one label-value assignment.

        The same object for the same labels for as long as the registry
        lives (``reset()`` included), so a call site may keep it."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            epoch = self.registry.epoch
            # The cap is on what one run can grow.  Children of earlier
            # epochs stay memoised (a caller may hold them) and count
            # again from their next record.
            if len(self._children) >= self.max_series and sum(
                    1 for c in self._children.values()
                    if c._epoch in (epoch, ~epoch)) >= self.max_series:
                raise MetricError(
                    f"metric {self.name!r} exceeded its series cap of "
                    f"{self.max_series}; label values are too dynamic")
            if self.kind == "histogram":
                child = Histogram(self.registry, self.buckets)
            else:
                child = _KINDS[self.kind](self.registry)
            child._epoch = ~epoch  # made in this epoch, not yet recorded
            self._children[key] = child
        return child

    # Label-less convenience: family.inc() / .set() / .observe() act on
    # the single unlabelled series.  The child is memoised on the family:
    # label-less counters sit on per-block hot paths (cache hits, device
    # ops), where re-deriving the () series key per increment is real
    # overhead.
    def _default(self):
        child = self._default_child
        if child is None:
            if self.labelnames:
                raise MetricError(
                    f"metric {self.name!r} has labels {self.labelnames}; "
                    "use .labels(...)")
            child = self._default_child = self.labels()
        return child

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def series(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """(label values, child) of every series recorded since the
        last reset."""
        epoch = self.registry.epoch
        return [(values, child) for values, child in self._children.items()
                if child._epoch == epoch]

    def series_key(self, values: Tuple[str, ...]) -> str:
        if not values:
            return self.name
        pairs = ",".join(f"{n}={v}" for n, v in zip(self.labelnames, values))
        return f"{self.name}{{{pairs}}}"


class MetricsRegistry:
    """The process-wide set of metric families."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Bumped by reset(); a child belongs to the epoch of its last
        #: record and is invisible (and zero) in any other.
        self.epoch = 0
        self._families: Dict[str, MetricFamily] = {}

    # -- toggling ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- family accessors (idempotent) -------------------------------------

    def _family(self, name: str, kind: str, help: str,
                labelnames: Tuple[str, ...],
                buckets: Optional[Tuple[float, ...]] = None,
                max_series: int = 1024) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(self, name, kind, help, labelnames,
                               buckets, max_series)
            self._families[name] = fam
            return fam
        if fam.kind != kind:
            raise MetricError(
                f"metric {name!r} is a {fam.kind}, not a {kind}")
        if tuple(labelnames) and fam.labelnames != tuple(labelnames):
            raise MetricError(
                f"metric {name!r} was registered with labels "
                f"{fam.labelnames}, not {tuple(labelnames)}")
        return fam

    def counter(self, name: str, help: str = "",
                labelnames: Tuple[str, ...] = (),
                max_series: int = 1024) -> MetricFamily:
        return self._family(name, "counter", help, labelnames,
                            max_series=max_series)

    def gauge(self, name: str, help: str = "",
              labelnames: Tuple[str, ...] = (),
              max_series: int = 1024) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames,
                            max_series=max_series)

    def histogram(self, name: str, help: str = "",
                  labelnames: Tuple[str, ...] = (),
                  buckets: Optional[Tuple[float, ...]] = None,
                  max_series: int = 1024) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames,
                            buckets, max_series)

    # -- reading -----------------------------------------------------------

    def get(self, name: str, **labelvalues: object) -> float:
        """Current value of one counter/gauge series (0.0 if absent)."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        key = tuple(str(labelvalues[n]) for n in fam.labelnames
                    if n in labelvalues)
        if len(key) != len(fam.labelnames):
            raise MetricError(
                f"metric {name!r} needs labels {fam.labelnames}")
        child = fam._children.get(key)
        if child is None or child._epoch != self.epoch:
            return 0.0
        return child.value if not isinstance(child, Histogram) else child.sum

    def families(self) -> List[MetricFamily]:
        return [self._families[k] for k in sorted(self._families)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict rendering: kind -> {series key -> value}."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for fam in self.families():
            section = out[fam.kind + "s"]
            for values, child in sorted(fam.series()):
                key = fam.series_key(values)
                if isinstance(child, Histogram):
                    section[key] = {"count": child.count, "sum": child.sum,
                                    "buckets": child.cumulative()}
                else:
                    section[key] = child.value
        return out

    def reset(self) -> None:
        """Zero every series, in O(1): family definitions survive, and
        so does every child a call site holds — it reappears, from zero,
        at its next record."""
        self.epoch += 1

    # -- persistence (repro.persist checkpoints) ---------------------------

    def counter_samples(self, prefixes: Tuple[str, ...]
                        ) -> List[List[object]]:
        """JSON-encodable dump of every counter series whose family name
        starts with one of ``prefixes``: ``[name, labelnames,
        labelvalues, value]`` rows, deterministically ordered."""
        rows: List[List[object]] = []
        for fam in self.families():
            if fam.kind != "counter" \
                    or not fam.name.startswith(tuple(prefixes)):
                continue
            for values, child in sorted(fam.series()):
                rows.append([fam.name, list(fam.labelnames), list(values),
                             child.value])
        return rows

    def restore_counter_sample(self, name: str, labelnames, labelvalues,
                               value: float) -> None:
        """Reinstate one persisted counter sample into this registry by
        adding ``value`` onto the (possibly fresh) series.  Lives here —
        not in ``repro.persist`` — because rebuilding a series from
        stored label names needs the dynamic ``labels(**...)`` form,
        where every other call site spells its label names."""
        fam = self.counter(name, "", tuple(labelnames))
        child = fam.labels(**dict(zip(labelnames, labelvalues)))
        child.inc(value)
