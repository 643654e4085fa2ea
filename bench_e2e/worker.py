"""Measure one workload in this process: repeat (set-up, exact pass).

A workload's **exact pass** is a fixed number of ops for a given seed,
from a fresh set-up, and the simulator is deterministic — so every
repetition does *the same work*, slice for slice and op for op.  That is
what makes the numbers steady on a noisy box and the layers comparable:

* noise on a shared host only ever adds time, so the host time of a
  slice (or op) is its **minimum over the repetitions**;
* the traced pass runs the same ops traced, plain and with obs
  disabled, so tracing overhead, the cost of enabled obs and the
  tracer's per-span cost are ratios of *identical* work;
* every repetition must reproduce the first one's virtual latencies,
  ``io_amp``, request digest and obs-registry deltas bit for bit, or
  the run is incorrect — traced or not.

``measure`` repeats until ``seconds`` of host time have been measured,
at least :data:`MIN_REPS` times; ``setup_s`` is the median set-up.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.blockdev import datapath

import layers
from catalog import END_TO_END, EXACT_END_TO_END, PER_LAYER, UNITS
from tracer import Tracer, span_inside_ns
from workloads import WORKLOADS, Workload

#: Repetitions per pass, however fast they are (quick untraced: one).
MIN_REPS = 3
#: Cheap set-ups are repeated beyond the repetitions, for a steadier
#: median: up to this many, while they have taken less than this long.
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.5
#: Raw spans kept for --trace-out (aggregates cover every span).
SPAN_LIMIT = 200_000


# -- obs registry deltas --------------------------------------------------------

def _snapshot() -> Dict[str, dict]:
    obs.flush()
    return obs.metrics().snapshot()


def _labels(key: str) -> Dict[str, str]:
    if "{" not in key:
        return {}
    return dict(pair.split("=", 1) for pair in key[key.index("{") + 1:-1]
                .split(","))


class Delta:
    """Counter and histogram movement between two registry snapshots."""

    def __init__(self, before: Dict[str, dict], after: Dict[str, dict]):
        self.counters = {k: v - before["counters"].get(k, 0.0)
                         for k, v in after["counters"].items()}
        zero = {"count": 0, "sum": 0.0}
        self.hists = {
            k: (v["count"] - before["histograms"].get(k, zero)["count"],
                v["sum"] - before["histograms"].get(k, zero)["sum"])
            for k, v in after["histograms"].items()}

    def _match(self, table: dict, family: str, where):
        for key, value in table.items():
            if key.split("{", 1)[0] == family and \
                    (where is None or where(_labels(key))):
                yield key, value

    def count(self, family: str, where=None) -> float:
        return sum(v for _k, v in self._match(self.counters, family, where))

    def by_label(self, family: str, label: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, value in self._match(self.counters, family, None):
            name = _labels(key)[label]
            out[name] = out.get(name, 0.0) + value
        return out

    def hist(self, family: str, where=None) -> Tuple[int, float]:
        rows = [v for _k, v in self._match(self.hists, family, where)]
        return (sum(n for n, _s in rows), sum(s for _n, s in rows))

    def exact(self) -> Dict[str, object]:
        """Everything that moved, for the bit-for-bit comparison."""
        out: Dict[str, object] = {
            k: v for k, v in sorted(self.counters.items()) if v}
        out.update({k: list(v) for k, v in sorted(self.hists.items())
                    if v[0]})
        return out


# -- one repetition -------------------------------------------------------------

def _quantile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _queue_depth() -> float:
    """Deepest tertiary-scheduler class queue right now (a gauge)."""
    return max([v for k, v in obs.metrics().snapshot()["gauges"].items()
                if k.startswith("sched_queue_depth")], default=0.0)


class Rep(NamedTuple):
    """One exact pass: per-slice and per-op host times, what it counted."""

    mode: str                 # "plain" | "noobs" | "traced"
    slice_ns: List[int]
    slice_ops: List[int]
    slice_spans: List[int]    # spans under the op layer (traced only)
    lat_ns: List[int]         # per op
    failed: int
    virt_s: float             # virtual seconds the client side advanced
    exact: dict
    delta: Delta
    extras: dict              # counts read off the bed at the end

    @property
    def ops(self) -> int:
        return sum(self.slice_ops)

    @property
    def host_ns(self) -> int:
        return sum(self.slice_ns)


def exact_pass(wl: Workload, mode: str, tracer: Optional[Tracer]) -> Rep:
    """Run the workload's exact pass in ``mode``, from its fresh set-up."""
    gc.collect()
    before = _snapshot()
    copied0 = datapath.bytes_copied_total()
    dropped0 = obs.trace().dropped
    virt0 = wl.client_time()
    slice_ns, slice_ops, slice_spans, queue_depth = [], [], [], 0.0
    if mode == "traced":
        tracer.op_cell = wl.op_cell
        spans0 = tracer.spans_under(layers.OP_LAYER)
        tracer.install()
    elif mode == "noobs":
        obs.disable()
    try:
        for _ in range(wl.prefix_slices):
            host_ns, done = wl.run_slice()
            slice_ns.append(host_ns)
            slice_ops.append(done)
            if mode == "traced":
                under = tracer.spans_under(layers.OP_LAYER)
                slice_spans.append(under - spans0)
                spans0 = under
            queue_depth = max(queue_depth, _queue_depth())
    finally:
        if mode == "traced":
            tracer.uninstall()
        elif mode == "noobs":
            obs.enable()
    delta = Delta(before, _snapshot())
    virt = sorted(wl.virt_s)
    ops = sum(slice_ops)
    exact = {
        "digest": wl.digest(),
        "ops": ops,
        "virt_op_p50_ms": 1e3 * _quantile(virt, 0.50),
        "virt_op_p99_ms": 1e3 * _quantile(virt, 0.99),
        "virt_op_mean_ms": 1e3 * statistics.fmean(wl.virt_s),
    }
    if mode != "noobs":     # with obs disabled there is nothing to count
        exact["io_amp"] = 1.0 + delta.count("device_io_bytes_total") \
            / (ops * wl.op_bytes)
        exact["counts"] = delta.exact()
    extras = {
        "copied": datapath.bytes_copied_total() - copied0,
        "dropped": obs.trace().dropped - dropped0,
        "queue_depth": queue_depth,
        "runs": sum(s.run_count() for s in wl.stores()
                    if hasattr(s, "run_count")),
        "series": sum(len(section) for section in
                      obs.metrics().snapshot().values()),
    }
    return Rep(mode, slice_ns, slice_ops, slice_spans, list(wl.lat_ns),
               wl.failed, wl.client_time() - virt0, exact, delta, extras)


def best(reps: List[Rep], mode: str, field: str) -> List[int]:
    """Element-wise minimum of ``field`` over the repetitions in ``mode``:
    the same work every time, and noise only ever adds."""
    return [min(column) for column in
            zip(*(getattr(r, field) for r in reps if r.mode == mode))]


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, trace_out: Optional[str] = None) -> dict:
    """Run workload ``name``; returns the result record (see run.py)."""
    modes = ("traced", "plain", "noobs") if trace else ("plain",)
    tracer = None
    if trace:
        table = dict(layers.LAYERS)
        # The replay proxy is benchmark code: carve it out of whichever
        # span it runs under, so it lands in "other".
        table[layers.OTHER] = [f"workloads:TimingClient.{verb}"
                               for verb in ("open", "read", "write", "close")]
        tracer = Tracer(table, layers.BUSY_LAYERS,
                        span_limit=SPAN_LIMIT if trace_out else 0)
        for layer, missing in tracer.unresolved.items():
            print(f"warning: layer {layer}: {len(missing)} boundary "
                  f"callable(s) no longer resolve, its metrics are "
                  f"partial: {', '.join(missing)}")

    def set_up() -> Workload:
        gc.collect()
        obs.reset()
        t0 = time.perf_counter()
        fresh = WORKLOADS[name](seed, quick=quick)
        fresh.build()
        setups.append(time.perf_counter() - t0)
        return fresh

    setups: List[float] = []
    reps: List[Rep] = []
    wl = None
    floor = len(modes) if quick else max(MIN_REPS, len(modes))
    while len(reps) < floor or (not quick and sum(
            r.host_ns for r in reps) < seconds * 1e9):
        wl = None  # free the previous bed before building the next
        wl = set_up()
        reps.append(exact_pass(wl, modes[len(reps) % len(modes)], tracer))
    checks, bad = wl.finish()

    first = next(r for r in reps if r.mode != "noobs")
    differing = sorted({key for r in reps for key, value in r.exact.items()
                        if value != first.exact[key]})
    if differing:
        print(f"NOT DETERMINISTIC: repetitions of seed {seed} differ on "
              f"{', '.join(differing)}")
    ops = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps) + bad + bool(differing)
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "loop": wl.loop, "op_bytes": wl.op_bytes,
        # The comparison of the repetitions is one more check.
        "attempted": ops + checks + 1, "failed": failed,
        "correct": failed == 0,
        "exact": first.exact,
    }
    if wl.loop == "open":
        record["open_loop"] = {"rate_per_virt_s": wl.rate,
                               "backlog_virt_s": wl.backlog_seconds()}
    if trace:
        record["metrics"] = _per_layer(wl, tracer, reps, first)
        if trace_out:
            record["spans_written"] = tracer.write_spans(trace_out)
    wl = None
    while not quick and len(setups) < MAX_SETUPS \
            and sum(setups) < SETUP_BUDGET_S:
        set_up()
    if not trace:
        record["metrics"] = _end_to_end(reps, first, setups)
    record["samples"] = {
        "ops": ops, "exact_ops": first.ops, "reps": len(reps),
        "host_ops": sum(r.ops for r in reps if r.mode == modes[0]),
        "host_s": sum(r.host_ns for r in reps) / 1e9,
        "setups": len(setups)}
    return record


# -- metrics --------------------------------------------------------------------

def _end_to_end(reps: List[Rep], first: Rep,
                setups: List[float]) -> Dict[str, float]:
    out = {
        "setup_s": statistics.median(setups),
        "ops_per_s": first.ops / sum(best(reps, "plain", "slice_ns")) * 1e9,
        "op_p50_us":
            statistics.median(best(reps, "plain", "lat_ns")) / 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out.update({name: first.exact[name] for name in EXACT_END_TO_END})
    return out


def _device_split(delta: Delta, wl: Workload, family: str, hist=False):
    disks = wl.disk_names()
    pick = delta.hist if hist else delta.count
    disk = pick(family, lambda lab: lab["device"] in disks)
    rest = pick(family, lambda lab: lab["device"] not in disks)
    return disk, rest


def _per_layer(wl: Workload, tracer: Tracer, reps: List[Rep],
               first: Rep) -> Dict[str, float]:
    delta, exact, extras = first.delta, first.exact, first.extras
    ops = first.ops                      # of one repetition
    traced_reps = sum(r.mode == "traced" for r in reps)
    traced_ops = ops * traced_reps
    traced_ns = sum(r.host_ns for r in reps if r.mode == "traced")
    user = ops * wl.op_bytes
    out: Dict[str, float] = {}

    # What a span costs: per slice, what the traced ops took longer than
    # the same ops untraced, over the spans under them (op latencies
    # only: background work is not an op); the median slice.  The part
    # of it between a span's own two clock reads is the same code
    # everywhere, so the no-op probe's figure for it is used as it is.
    plain_ns = best(reps, "plain", "slice_ns")
    plain_lat = best(reps, "plain", "lat_ns")
    traced_lat = best(reps, "traced", "lat_ns")
    spans = best(reps, "traced", "slice_spans")
    edges = [0] + list(itertools.accumulate(first.slice_ops))
    per_span = max(0.0, statistics.median(
        _ratio(sum(traced_lat[a:b]) - sum(plain_lat[a:b]), n)
        for a, b, n in zip(edges, edges[1:], spans)))
    end = tracer.totals(per_span, min(span_inside_ns(), per_span))
    tracer_ns = per_span * tracer.span_count

    self_ns = tracer.by_layer(end["self_ns"])
    calls = tracer.by_layer(end["calls"])
    incl = dict(zip(tracer.layer_names, end["layer_incl_ns"]))
    busy = dict(zip(tracer.layer_names, end["busy_ns"]))
    for layer in layers.LAYERS:
        out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / traced_ops
        out[f"{layer}.incl_us_per_op"] = incl[layer] / 1e3 / traced_ops
        out[f"{layer}.calls_per_op"] = calls[layer] / traced_ops
    covered = sum(self_ns[layer] for layer in layers.LAYERS)
    out[f"{layers.OTHER}.self_us_per_op"] = \
        (traced_ns - covered - tracer_ns) / 1e3 / traced_ops
    out["bench_e2e.tracer_self_us_per_op"] = tracer_ns / 1e3 / traced_ops
    out["bench_e2e.tracer_ns_per_span"] = per_span

    def calls_of(spec: str) -> float:
        return tracer.of(end["calls"], spec) / traced_reps

    plain_rate = ops / sum(plain_ns) * 1e9
    out["frontend.host_op_p99_us"] = \
        _quantile(sorted(plain_lat), 0.99) / 1e3
    out["frontend.host_mb_per_s"] = plain_rate * wl.op_bytes / 1e6
    out["frontend.virt_op_p50_ms"] = exact["virt_op_p50_ms"]
    out["frontend.virt_op_p99_ms"] = exact["virt_op_p99_ms"]
    out["frontend.admission_wait_virt_s"] = \
        delta.hist("frontend_admission_wait_seconds")[1]
    out["frontend.rejects"] = delta.count("frontend_rejects_total")

    fan_n, fan_sum = delta.hist("cluster_fanout_width")
    out["cluster.fanout_mean"] = _ratio(fan_sum, fan_n)
    routed = delta.by_label("cluster_route_requests_total", "shard")
    out["cluster.shard_imbalance"] = _ratio(
        max(routed.values(), default=0.0),
        statistics.fmean(routed.values()) if routed else 0.0)
    out["cluster.route_wait_virt_s"] = \
        delta.hist("cluster_route_wait_seconds")[1]

    lookups = calls_of(layers.LOOKUP)
    out["lfs.namespace.lookups_per_op"] = lookups / ops
    out["lfs.namespace.dir_parses_per_lookup"] = \
        _ratio(calls_of(layers.DIR_PARSE), lookups)
    out["lfs.data.blocks_per_op"] = \
        (calls_of(layers.CACHE_GET) + calls_of(layers.CACHE_PUT)) / ops
    hits = delta.count("buffercache_hits_total")
    out["lfs.buffercache.hit_ratio"] = _ratio(
        hits, hits + delta.count("buffercache_misses_total"))
    out["lfs.buffercache.evictions_per_op"] = \
        delta.count("buffercache_evictions_total") / ops
    out["lfs.segwriter.flushes"] = calls_of(layers.SEG_FLUSH)
    cleaned = delta.count("cleaner_segments_cleaned_total")
    out["lfs.cleaner.segments_cleaned"] = cleaned
    out["lfs.cleaner.blocks_forwarded_per_segment"] = _ratio(
        delta.count("cleaner_blocks_forwarded_total"), cleaned)
    out["lfs.cleaner.busy_host_s"] = busy["lfs.cleaner"] / 1e9

    hits = delta.count("segcache_hits_total")
    out["core.segcache.hit_ratio"] = _ratio(
        hits, hits + delta.count("segcache_misses_total"))
    out["core.segcache.ejections"] = delta.count("segcache_ejections_total")
    out["core.service.demand_fetches"] = \
        delta.count("service_demand_fetches_total")
    out["core.service.host_us_per_fetch"] = _ratio(
        tracer.of(end["incl_ns"], layers.DEMAND_FETCH) / 1e3,
        tracer.of(end["calls"], layers.DEMAND_FETCH))
    out["core.ioserver.virt_fetch_s"] = delta.hist("ioserver_fetch_seconds")[1]
    out["core.ioserver.virt_writeout_s"] = \
        delta.hist("ioserver_writeout_seconds")[1]
    out["core.ioserver.segments_written"] = \
        delta.count("ioserver_segments_written_total")
    out["core.migrator.segments_staged"] = \
        delta.count("migrator_segments_staged_total")
    out["core.migrator.bytes_staged"] = \
        delta.count("migrator_bytes_staged_total")
    out["core.migrator.busy_host_s"] = busy["core.migrator"] / 1e9
    out["core.migrator.host_us_per_segment"] = _ratio(
        busy["core.migrator"] / 1e3,
        tracer.of(end["calls"], layers.STAGE_FINALIZE))

    out["sched.requests"] = delta.count("sched_requests_total")
    out["sched.virt_wait_s"] = delta.hist("sched_wait_seconds")[1]
    out["sched.max_queue_depth"] = extras["queue_depth"]
    out["sched.volume_switches"] = delta.count("sched_volume_switches_total")
    out["footprint.ops"] = delta.count("footprint_ops_total")
    out["footprint.virt_op_s"] = delta.hist("footprint_op_seconds")[1]
    out["footprint.retries"] = delta.count("retry_attempts_total")

    disk_ops, _ = _device_split(delta, wl, "device_io_ops_total")
    disk_bytes, tert_bytes = _device_split(delta, wl, "device_io_bytes_total")
    disk_busy, tert_busy = _device_split(delta, wl, "device_io_seconds",
                                         hist=True)
    out["blockdev.disk.ops_per_op"] = disk_ops / ops
    out["blockdev.disk.bytes_per_user_byte"] = disk_bytes / user
    out["blockdev.disk.virt_busy_s"] = disk_busy[1]
    out["blockdev.jukebox.swaps"] = delta.count("robot_swaps_total")
    out["blockdev.jukebox.bytes_per_user_byte"] = tert_bytes / user
    out["blockdev.jukebox.virt_busy_s"] = tert_busy[1]
    out["blockdev.store.bytes_copied_per_user_byte"] = extras["copied"] / user
    out["blockdev.store.runs"] = extras["runs"]

    # Ratios of the same slices in two modes; the median slice.
    traced_slices = best(reps, "traced", "slice_ns")
    noobs_slices = best(reps, "noobs", "slice_ns")
    out["sim.host_us_per_virt_s"] = _ratio(sum(plain_ns) / 1e3, first.virt_s)
    out["obs.enabled_cost_frac"] = 1.0 - statistics.median(
        quiet / loud for quiet, loud in zip(noobs_slices, plain_ns))
    out["obs.trace_dropped"] = extras["dropped"]
    out["obs.series"] = extras["series"]
    out["bench_e2e.trace_overhead_frac"] = 1.0 - statistics.median(
        fast / slow for fast, slow in zip(plain_ns, traced_slices))
    out["bench_e2e.traced_host_s"] = (traced_ns - tracer_ns) / 1e9
    return out


def render(record: dict) -> List[str]:
    """The human-readable listing: every metric once, with its unit."""
    kind = "traced" if record["trace"] else "untraced"
    s = record["samples"]
    lines = [f"workload {record['workload']} ({kind}) seed={record['seed']} "
             f"digest={record['exact']['digest']} loop={record['loop']} "
             f"reps={s['reps']} exact_ops={s['exact_ops']} "
             f"host_s={s['host_s']:.2f} failed={record['failed']}"
             f"/{record['attempted']}"]
    if "open_loop" in record:
        o = record["open_loop"]
        lines.append(f"  open loop: {o['rate_per_virt_s']} req/virt_s, last "
                     f"completion {o['backlog_virt_s']:.1f} virt_s past the "
                     f"arrival window")
    for metric in PER_LAYER if record["trace"] else END_TO_END:
        value = record["metrics"][metric.name]
        lines.append(f"  {metric.name:<44} {value:>16.6g} {metric.unit:<8}"
                     f" {metric.clock:<5} n={s['exact_ops']}")
    if not record["trace"]:
        lines.append(f"  {'failed_ops_frac':<44} "
                     f"{record['failed'] / record['attempted']:>16.6g} "
                     f"{'ratio':<8} count n={record['attempted']}")
    return lines


def result_line(record: dict) -> dict:
    """The driver's contract: exactly these four keys."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in record["metrics"].items()}}
