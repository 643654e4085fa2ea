"""Ablation: segment size (paper §3: "512KB or 1MB segments").

The segment is simultaneously the log-write unit, the migration transfer
unit, and the cache line (§5: "the equivalent of a cache line in
processor caches").  The size trades off:

* larger segments amortise MO positioning -> better migration throughput;
* smaller segments fetch faster -> lower demand-miss latency and less
  cache pollution for point accesses.

Metrics: pipelined migration throughput, and the first-byte latency of a
point access to migrated data.
"""

import os

import pytest

from repro.bench import harness
from repro.core.highlight import HighLightConfig
from repro.util.units import KB, MB

SIZES = [512 * KB, 1 * MB]
PAYLOAD = 8 * MB


def _run(segment_size: int):
    bed = harness.make_highlight(
        partition_bytes=128 * MB, n_platters=4,
        config=HighLightConfig(segment_size=segment_size))
    harness.preload_write_volume(bed)
    fs, app, migrator = bed.fs, bed.app, bed.migrator

    payload = os.urandom(PAYLOAD)
    fs.write_path("/obj", payload)
    fs.checkpoint(app)
    app.sleep(100)
    t0 = app.time
    migrator.migrate_file("/obj", app)
    migrator.flush(app)
    migrate_rate = PAYLOAD / (app.time - t0) / KB

    fs.service.flush_cache(app)
    fs.drop_caches(app, drop_inodes=True)
    t0 = app.time
    fs.read_path("/obj", 0, 8 * KB)
    first_byte = app.time - t0
    assert fs.read_path("/obj") == payload
    return {"migrate_kbs": migrate_rate, "first_byte": first_byte}


RESULTS = {}


def _sweep():
    for size in SIZES:
        if size not in RESULTS:
            RESULTS[size] = _run(size)
    return dict(RESULTS)


def test_ablation_segment_size_report(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\nablation: segment size")
    for size in SIZES:
        r = results[size]
        print(f"  {size // KB:>5}KB segments: migrate "
              f"{r['migrate_kbs']:6.0f}KB/s, first byte "
              f"{r['first_byte']:5.2f}s")


def test_small_segments_fetch_faster(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = _sweep()
    assert results[512 * KB]["first_byte"] < \
        results[1 * MB]["first_byte"], (
            "a 512KB cache line should demand-fetch faster than 1MB")


def test_both_sizes_round_trip(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _sweep()  # _run asserts content integrity internally
