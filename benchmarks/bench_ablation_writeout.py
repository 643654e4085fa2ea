"""Ablation: immediate vs delayed tertiary write-out (paper §5.4).

"Performance may suffer (due to disk arm contention) if the new tertiary
segments are copied to tertiary storage at the same time as other data
are staged" — the fix is delaying copy-out to an idle period.  Here an
application issues periodic reads *concurrently* (scheduler-overlapped)
with a migration; with immediate write-out the I/O server's raw-disk
chunk reads fight the application for the arm, with delayed write-out
that traffic moves to the idle period after the burst.

The delayed policy is the tertiary scheduler's write-out queue
(``sched_mode="scheduled"``): staged segments wait, pinned in their cache
lines, up to a queue depth of 16 (overflow force-drains the oldest), and
``pump`` is the idle-period drain.

Metric: the application's mean read latency during the migration.
"""

import os
import random

import pytest

from tests.conftest import HLBed
from repro.core.highlight import HighLightConfig
from repro.sim.actor import Actor
from repro.sim.scheduler import Scheduler
from repro.util.units import KB, MB


def _run(mode: str) -> float:
    config = None
    if mode == "delayed":
        config = HighLightConfig(sched_mode="scheduled",
                                 sched_writeout_queue_limit=16)
    bed = HLBed(disk_bytes=192 * MB, n_platters=8, config=config)
    fs = bed.fs
    fs.write_path("/active.db", os.urandom(2 * MB))
    fs.write_path("/to-migrate", os.urandom(6 * MB))
    fs.checkpoint()
    bed.app.sleep(100)

    mig_actor = Actor("mig")
    app_actor = Actor("reader")
    mig_actor.sleep_until(bed.app.time)
    app_actor.sleep_until(bed.app.time)

    state = {"done": False, "latency": 0.0, "reads": 0}
    inum = fs.lookup("/active.db")
    rng = random.Random(9)

    def migrator_task():
        yield from bed.migrator.migrate_file_steps("/to-migrate", mig_actor)
        bed.migrator.flush(mig_actor)
        state["done"] = True
        yield

    def reader_task():
        while not state["done"]:
            app_actor.sleep(0.3)  # the application's own pacing
            t0 = app_actor.time
            fs.read(inum, rng.randrange(0, 500) * 4096, 4096, app_actor)
            state["latency"] += app_actor.time - t0
            state["reads"] += 1
            yield

    sched = Scheduler()
    sched.add(mig_actor, migrator_task())
    sched.add(app_actor, reader_task())
    sched.run()

    fs.sched.pump(mig_actor)  # the idle period (no-op when immediate)
    assert fs.read_path("/to-migrate")
    return state["latency"] / max(1, state["reads"])


RESULTS = {}


def _measure(mode):
    if mode not in RESULTS:
        RESULTS[mode] = _run(mode)
    return RESULTS[mode]


def test_ablation_writeout_report(benchmark):
    results = benchmark.pedantic(
        lambda: {m: _measure(m) for m in ("immediate", "delayed")},
        rounds=1, iterations=1)
    print("\nablation: mean app read latency during migration")
    for mode, latency in results.items():
        print(f"  {mode:>9}: {latency * 1000:7.1f} ms")


def test_delayed_writeout_reduces_interference(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    immediate = _measure("immediate")
    delayed = _measure("delayed")
    assert delayed < immediate, (
        f"delaying copy-out should shrink app-visible contention: "
        f"delayed {delayed * 1000:.1f}ms vs immediate "
        f"{immediate * 1000:.1f}ms")
