"""Every metric the benchmark reports: name, unit, clock, direction.

This table is the single source the driver (``run.py``), the manifest
(``BENCHMARK.json``, written by ``run.py --calibrate``) and the self-test
read.  Two clocks, always labelled: **host** is wall time of the
simulator (``time.perf_counter_ns``); **virt** is simulated seconds on
the client actor — what the paper's tables report — and repeats exactly
for a fixed seed, as does every count.  Every pass runs the same exact
number of ops per seed (the *exact pass*), several times over.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from layers import LAYERS, OTHER


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    clock: str           # "host" | "virt" | "count"
    what: str
    #: End-to-end only: the share of the parent's median a change may
    #: lose before it counts as a regression (the starting point that
    #: ``--calibrate`` widens to 3x the measured spread, capped at 0.25).
    bound: float = 0.0


#: What a user of the system sees, per workload.  None is ever 0.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "host",
           "median of the run's set-ups (three to nine): bed build, "
           "preload, migrate, cache drop, request generation, warm-up",
           0.25),
    Metric("ops_per_s", "1/s", "higher", "host",
           "ops of the exact pass per host second, background work "
           "(daemon ticks) and verification included; each slice's time "
           "is its minimum over the repetitions", 0.10),
    Metric("op_p50_us", "us", "lower", "host",
           "median over the ops of an op's host latency, each op's "
           "being its minimum over the repetitions", 0.10),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "ru_maxrss of the workload process", 0.10),
    Metric("virt_op_mean_ms", "virt_ms", "lower", "virt",
           "mean client-observed virtual latency over the exact pass "
           "(from scheduled arrival in the open loop)", 0.10),
    Metric("io_amp", "B/B", "lower", "count",
           "bytes moved per user byte over the exact pass: the user's "
           "copy plus every device byte (disk + tertiary, reads + "
           "writes), so 1.0 means no device I/O at all", 0.10),
]

#: Metrics whose value must repeat bit for bit for a fixed seed.
EXACT_END_TO_END = ("virt_op_mean_ms", "io_amp")

_PER_LAYER_GENERIC = [
    ("self_us_per_op", "us", "lower", "host",
     "host time inside the layer's own code per op (span minus children, "
     "less the tracer's own time)"),
    ("incl_us_per_op", "us", "lower", "host",
     "host time under the layer's outermost spans per op"),
    ("calls_per_op", "1/op", "lower", "count",
     "boundary calls per op"),
]

_SPECIFIC: List[Metric] = [
    Metric("frontend.host_op_p99_us", "us", "lower", "host",
           "99th percentile host latency of one untraced op"),
    Metric("frontend.host_mb_per_s", "MB/s", "higher", "host",
           "untraced ops_per_s x the workload's fixed bytes per op"),
    # Exact, but constants of the device model on workloads whose ops all
    # cost the same (read_hot), so reported here and not gated.
    Metric("frontend.virt_op_p50_ms", "virt_ms", "lower", "virt",
           "median client-observed virtual latency over the exact pass"),
    Metric("frontend.virt_op_p99_ms", "virt_ms", "lower", "virt",
           "99th percentile of the same"),
    Metric("frontend.admission_wait_virt_s", "virt_s", "lower", "virt",
           "virtual seconds requests waited on token buckets"),
    Metric("frontend.rejects", "count", "lower", "count",
           "requests refused by hard admission caps"),
    Metric("cluster.fanout_mean", "count", "lower", "count",
           "mean shards touched per routed request"),
    Metric("cluster.shard_imbalance", "ratio", "lower", "count",
           "max / mean routed requests per shard"),
    Metric("cluster.route_wait_virt_s", "virt_s", "lower", "virt",
           "virtual seconds routed requests queued behind a shard"),
    Metric("lfs.namespace.lookups_per_op", "1/op", "lower", "count",
           "LFS.lookup calls per op"),
    Metric("lfs.namespace.dir_parses_per_lookup", "ratio", "lower", "count",
           "Directory.parse calls per LFS.lookup"),
    Metric("lfs.data.blocks_per_op", "1/op", "lower", "count",
           "blocks passed through BufferCache.get/put per op"),
    Metric("lfs.buffercache.hit_ratio", "ratio", "higher", "count",
           "buffer cache hits / lookups"),
    Metric("lfs.buffercache.evictions_per_op", "1/op", "lower", "count",
           "clean buffers evicted per op"),
    Metric("lfs.segwriter.flushes", "count", "lower", "count",
           "SegmentWriter.flush calls"),
    Metric("lfs.cleaner.segments_cleaned", "count", "lower", "count",
           "disk segments cleaned"),
    Metric("lfs.cleaner.blocks_forwarded_per_segment", "ratio", "lower",
           "count", "live blocks rewritten per cleaned segment"),
    Metric("lfs.cleaner.busy_host_s", "s", "lower", "host",
           "host seconds of the traced ops spent under cleaner spans"),
    Metric("core.segcache.hit_ratio", "ratio", "higher", "count",
           "segment cache hits / lookups"),
    Metric("core.segcache.ejections", "count", "lower", "count",
           "cache lines ejected"),
    Metric("core.service.demand_fetches", "count", "lower", "count",
           "synchronous fetches triggered by block faults"),
    Metric("core.service.host_us_per_fetch", "us", "lower", "host",
           "host time under one ServiceProcess.demand_fetch"),
    Metric("core.ioserver.virt_fetch_s", "virt_s", "lower", "virt",
           "virtual seconds of tertiary -> cache-line copies"),
    Metric("core.ioserver.virt_writeout_s", "virt_s", "lower", "virt",
           "virtual seconds of staged-line -> tertiary copies"),
    Metric("core.ioserver.segments_written", "count", "lower", "count",
           "segments written to tertiary"),
    Metric("core.migrator.segments_staged", "count", "lower", "count",
           "staging segments sealed"),
    Metric("core.migrator.bytes_staged", "B", "lower", "count",
           "bytes in sealed staging segments"),
    Metric("core.migrator.busy_host_s", "s", "lower", "host",
           "host seconds of the traced ops under migrator spans, "
           "cleaner time inside them excluded"),
    Metric("core.migrator.host_us_per_segment", "us", "lower", "host",
           "migrator busy time per sealed staging segment"),
    Metric("sched.requests", "count", "lower", "count",
           "requests submitted to the tertiary scheduler"),
    Metric("sched.virt_wait_s", "virt_s", "lower", "virt",
           "virtual seconds requests waited in scheduler queues"),
    Metric("sched.max_queue_depth", "count", "lower", "count",
           "deepest scheduler class queue seen at a slice boundary"),
    Metric("sched.volume_switches", "count", "lower", "count",
           "times the scheduler's batch moved to another volume"),
    Metric("footprint.ops", "count", "lower", "count",
           "Footprint read/write operations"),
    Metric("footprint.virt_op_s", "virt_s", "lower", "virt",
           "virtual seconds inside Footprint operations"),
    Metric("footprint.retries", "count", "lower", "count",
           "transient device errors absorbed by retry"),
    Metric("blockdev.disk.ops_per_op", "1/op", "lower", "count",
           "disk device operations per op"),
    Metric("blockdev.disk.bytes_per_user_byte", "B/B", "lower", "count",
           "disk bytes moved per user byte"),
    Metric("blockdev.disk.virt_busy_s", "virt_s", "lower", "virt",
           "virtual seconds of disk positioning + transfer"),
    Metric("blockdev.jukebox.swaps", "count", "lower", "count",
           "media swaps by the robot picker"),
    Metric("blockdev.jukebox.bytes_per_user_byte", "B/B", "lower", "count",
           "tertiary bytes moved per user byte"),
    Metric("blockdev.jukebox.virt_busy_s", "virt_s", "lower", "virt",
           "virtual seconds of tertiary positioning + transfer"),
    Metric("blockdev.store.bytes_copied_per_user_byte", "B/B", "lower",
           "count", "datapath.bytes_copied_total() per user byte"),
    Metric("blockdev.store.runs", "count", "lower", "count",
           "extent runs held by every device store when the pass ends"),
    Metric("sim.host_us_per_virt_s", "us", "lower", "host",
           "untraced host time per virtual second on the client side"),
    Metric("obs.enabled_cost_frac", "ratio", "lower", "host",
           "1 - host time with obs disabled / enabled, the same slices "
           "run both ways; the median slice"),
    Metric("obs.trace_dropped", "count", "lower", "count",
           "events the obs trace ring evicted"),
    Metric("obs.series", "count", "lower", "count",
           "metric series in the registry when the pass ends"),
    Metric(f"{OTHER}.self_us_per_op", "us", "lower", "host",
           "host time outside every span: driver loop, payloads, verify"),
    Metric("bench_e2e.tracer_self_us_per_op", "us", "lower", "host",
           "the tracer's own time per op, removed from every span: what "
           "the traced ops took longer than the same ops untraced"),
    Metric("bench_e2e.tracer_ns_per_span", "ns", "lower", "host",
           "the same, per span"),
    Metric("bench_e2e.trace_overhead_frac", "ratio", "lower", "host",
           "1 - untraced / traced host time of the same slices; the "
           "median slice"),
    Metric("bench_e2e.traced_host_s", "s", "lower", "host",
           "host seconds of the traced ops less the tracer's own time: "
           "what the self times sum to, the base of the busy shares"),
]


PER_LAYER: List[Metric] = [
    Metric(f"{layer}.{suffix}", unit, better, clock, what)
    for layer in LAYERS
    for suffix, unit, better, clock, what in _PER_LAYER_GENERIC] + _SPECIFIC
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
