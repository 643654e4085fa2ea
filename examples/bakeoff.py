#!/usr/bin/env python3
"""The Sequoia "bake-off": FFS vs LFS vs HighLight on a mixed workload.

Paper §2: "When each system is in a suitable condition, there will be a
'bake-off' to compare and contrast the systems and see how well they
support an actual work load."  This example runs one: a mixed
earth-science day — checkpoint dumps, satellite-image loads, database
queries, and reactivation of archived data — against all three
filesystems, on identical calibrated hardware.

FFS and LFS have no tertiary tier, so their disks must be large enough to
hold everything; HighLight runs with a *small* disk plus the MO changer,
showing the paper's point — comparable hot performance at a fraction of
the disk capacity.

This example deliberately bypasses the ``Client`` session front end
(``repro.frontend``): the same raw workload must run against all three
filesystems, and FFS/LFS have no backend adapter.  Application-facing
examples — quickstart, the Sequoia archive, volume reclamation — show
the sanctioned session surface.

Run:  python3 examples/bakeoff.py
"""

import os
import random

from repro.bench import harness
from repro.core.daemon import AutoMigrationDaemon
from repro import Migrator
from repro import STPPolicy
from repro.sim.actor import Actor
from repro.util.units import KB, MB, fmt_time

BIG_DISK = 512 * MB        # FFS / LFS need room for everything
SMALL_DISK = 96 * MB       # HighLight's disk is ~5x smaller


def build(kind):
    if kind == "ffs":
        bed = harness.make_ffs(BIG_DISK)
        return bed.fs, bed.app, None
    if kind == "lfs":
        bed = harness.make_lfs(BIG_DISK)
        return bed.fs, bed.app, None
    bed = harness.make_highlight(partition_bytes=SMALL_DISK, n_platters=8)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app
    # The daemon's migrator runs on its own clock: its work overlaps the
    # application's think time, contending only for shared devices.
    daemon_actor = Actor("migrator-daemon")
    daemon = AutoMigrationDaemon(
        fs, Migrator(fs, policy=STPPolicy(target_bytes=16 * MB,
                                          min_age=1800.0),
                     actor=daemon_actor),
        high_water=0.35, low_water=0.25)
    return fs, app, daemon


def workday(fs, app, daemon, rng):
    """One simulated working day; returns per-phase timings."""
    timings = {}

    # Morning: load two satellite data sets (~24 MB).
    t0 = app.time
    fs.mkdir("/sat")
    for ds in range(2):
        fs.mkdir(f"/sat/ds{ds}")
        for i in range(6):
            fs.write_path(f"/sat/ds{ds}/band{i}", os.urandom(2 * MB))
    fs.checkpoint()
    timings["load 24MB images"] = app.time - t0

    # Midday: the simulation dumps checkpoints while analysts query.
    t0 = app.time
    fs.mkdir("/ckpt")
    for gen in range(4):
        fs.write_path(f"/ckpt/g{gen}", os.urandom(4 * MB))
        fs.checkpoint(app)
        app.sleep(1800)
        if daemon is not None:
            # Background pass during the simulation's quiet half hour.
            daemon.migrator.actor.sleep_until(app.time - 1800)
            daemon.tick(daemon.migrator.actor)
    timings["4 ckpt generations"] = app.time - t0 - 4 * 1800

    # Afternoon: database-style random page updates on one image.
    t0 = app.time
    inum = fs.lookup("/sat/ds0/band0")
    for _ in range(300):
        page = rng.randrange(0, 500)
        if rng.random() < 0.3:
            fs.write(inum, page * 4096, b"q" * 4096)
        else:
            fs.read(inum, page * 4096, 4096)
    fs.sync(app)
    timings["300 random pages"] = app.time - t0

    # Evening: reactivate yesterday's archived checkpoint.
    t0 = app.time
    data = fs.read_path("/ckpt/g0")
    timings["reopen oldest ckpt"] = app.time - t0
    assert len(data) == 4 * MB
    return timings


def main():
    print("== Sequoia bake-off: one simulated workday ==")
    rng_seed = 17
    rows = {}
    disk_used = {}
    for kind in ("ffs", "lfs", "highlight"):
        fs, app, daemon = build(kind)
        rows[kind] = workday(fs, app, daemon, random.Random(rng_seed))
        if kind == "highlight":
            disk_used[kind] = f"{SMALL_DISK // MB}MB disk + MO changer"
        else:
            disk_used[kind] = f"{BIG_DISK // MB}MB disk"

    phases = list(next(iter(rows.values())))
    header = f"{'phase':<24}" + "".join(f"{k:>14}" for k in rows)
    print(header)
    print("-" * len(header))
    for phase in phases:
        line = f"{phase:<24}"
        for kind in rows:
            line += f"{rows[kind][phase]:>13.1f}s"
        print(line)
    print("-" * len(header))
    for kind in rows:
        print(f"  {kind:<10} hardware: {disk_used[kind]}")
    print("\nHighLight keeps hot-path times comparable while holding the")
    print("archive on tertiary media behind a disk ~5x smaller; only the")
    print("reopen of archived data pays tertiary latency.")


if __name__ == "__main__":
    main()
