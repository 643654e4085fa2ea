#!/usr/bin/env python3
"""Operations scenario: a year of archive housekeeping in one script.

Exercises the paper's §10 future-work machinery working together:

* the watermark daemon drains cold data as the disk fills;
* updates strand dead bytes on old tertiary volumes;
* the tertiary cleaner reclaims a mostly-dead volume (two drives: one
  streams the victim, the other writes the destination);
* the rearranger re-clusters co-accessed segments after access patterns
  shift — the §5.4 "data sets loaded independently, then analysed
  together" motivation.

Run:  python3 examples/volume_reclamation.py
"""

import os

from repro.bench import harness
from repro.core.daemon import AutoMigrationDaemon
from repro import Migrator
from repro import STPPolicy
from repro.core.rearrange import SegmentRearranger
from repro.core.tcleaner import TertiaryCleaner
from repro import open_node
from repro.util.units import KB, MB, fmt_time


def main() -> None:
    print("== archive housekeeping: daemon, tertiary cleaner, rearranger ==")
    bed = harness.make_highlight(partition_bytes=96 * MB, n_platters=6,
                                 platter_constraint=8 * MB)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app
    client = open_node(bed)  # sessions for the data plane, fs for ops

    # Season 1: data arrives, the daemon keeps the disk comfortable.
    datasets = {}
    for i in range(12):
        path = f"/archive/set{i:02d}"
        datasets[path] = os.urandom(2 * MB)
        handle = client.open(app, path, create=True)
        handle.write(app, datasets[path])
        handle.close(app)
        app.sleep(1800)
    fs.checkpoint()
    app.sleep(3600)
    migrator = Migrator(fs, policy=STPPolicy(target_bytes=8 * MB,
                                             min_age=600.0))
    daemon = AutoMigrationDaemon(fs, migrator, high_water=0.15,
                                 low_water=0.08)
    daemon.run_until_calm(max_ticks=12)
    vol_live = [fs.tsegfile.live_bytes(v)
                for v in range(len(fs.tsegfile.volumes))]
    print(f"after daemon drain: disk utilization "
          f"{daemon.disk_utilization():.0%}, per-volume live KB: "
          f"{[v // KB for v in vol_live]}")

    # Season 2: half the archived sets get re-issued (rewritten), killing
    # their tertiary copies and fragmenting volume 0.
    for i in range(0, 12, 2):
        path = f"/archive/set{i:02d}"
        datasets[path] = os.urandom(2 * MB)
        handle = client.open(app, path)
        handle.write(app, datasets[path])
        handle.close(app)
        fs.sync()
    fs.checkpoint()
    frag = [fs.tsegfile.live_bytes(v) // KB
            for v in range(len(fs.tsegfile.volumes))]
    print(f"after re-issues: per-volume live KB: {frag}")

    # Housekeeping: the tertiary cleaner reclaims mostly-dead volumes.
    tcleaner = TertiaryCleaner(fs, migrator, live_fraction_threshold=0.6)
    reclaimed = 0
    while True:
        victim = tcleaner.select_victim()
        if victim is None:
            break
        moved = tcleaner.clean_volume(victim)
        print(f"cleaned volume {victim}: forwarded {moved} live blocks; "
              f"volume reusable again")
        reclaimed += 1
    print(f"volumes reclaimed: {reclaimed}")

    # Season 3: two sets that were archived months apart are now analysed
    # together; the rearranger co-locates them.
    rearranger = SegmentRearranger(fs, migrator, affinity_window=120.0)
    pair = ["/archive/set01", "/archive/set09"]
    for _round in range(2):
        fs.service.flush_cache(app)
        fs.drop_caches(app, drop_inodes=True)
        for path in pair:
            handle = client.open(app, path)
            handle.read(app, 0, 16 * KB)
            handle.close(app)
            app.sleep(30)
        app.sleep(1200)
    moved = rearranger.run_once(app)
    fs.checkpoint()
    print(f"rearranger clustered the co-analysed pair: "
          f"{moved} blocks re-homed")

    # Prove nothing was harmed, end to end.
    fs.service.flush_cache(app)
    fs.drop_caches(app, drop_inodes=True)
    for path, payload in datasets.items():
        handle = client.open(app, path)
        assert handle.read(app) == payload, path
        handle.close(app)
    from repro.lfs.check import check_filesystem
    report = check_filesystem(fs)
    assert report.ok, report.render()
    print(f"all {len(datasets)} data sets verified intact; "
          f"filesystem consistent ({fmt_time(app.time)} of virtual time)")
    print("housekeeping scenario complete.")


if __name__ == "__main__":
    main()
