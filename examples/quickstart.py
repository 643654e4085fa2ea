#!/usr/bin/env python3
"""Quickstart: open a HighLight archive through the Client API, migrate
a file to tertiary storage, and watch a demand fetch bring it back.

This walks the paper's core loop end to end, the way an application
sees it — one tenant-aware session front end over the whole stack:

1. assemble the testbed (RZ57 disk partition + HP 6300 MO changer on one
   SCSI bus, as in §7) and open it with :func:`repro.open_node`;
2. write a file through a session handle — it lands on the disk farm
   through the LFS log;
3. migrate it — the migrator assembles staging segments with tertiary
   block addresses and the I/O server copies them out via Footprint;
4. eject the cached segments and read the file again — the read blocks
   on a demand fetch, then completes from the disk cache.

Run:  python3 examples/quickstart.py
"""

import os

from repro import TenantBudget, open_node
from repro.bench import harness
from repro.core.stack import remount
from repro.util.units import MB, fmt_rate, fmt_time


def main() -> None:
    print("== HighLight quickstart ==")
    bed = harness.make_highlight(partition_bytes=128 * MB, n_platters=4)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app

    # One client over the single-node stack; "science" is our tenant,
    # entitled to 4 MB/s of admitted data-plane traffic.
    client = open_node(bed)
    client.tenant("science", TenantBudget(rate_bytes_per_s=4 * MB,
                                          burst_bytes=4 * MB))

    # 1. Ordinary file I/O: applications open handles and read/write.
    payload = os.urandom(2 * MB)
    handle = client.open(app, "/data/results.bin", tenant="science",
                         create=True)
    handle.write(app, payload)
    stat = handle.stat(app)
    fs.checkpoint()
    print(f"wrote {stat.size // MB}MB to {stat.path}          "
          f"(virtual time {fmt_time(app.time)})")
    print(f"   disk segments: {fs.df()['segments']}, "
          f"clean: {fs.df()['clean']}")

    # 2. Let the file age, then migrate it to the MO changer — a
    #    background op billed to the same tenant's budget.
    app.sleep(3600)
    t0 = app.time
    client.migrate(app, handle)
    stats = bed.migrator.stats
    print(f"migrated: {stats.blocks_migrated} blocks in "
          f"{stats.segments_staged} tertiary segments "
          f"({fmt_time(app.time - t0)})")
    print(f"   tertiary live bytes: {fs.df()['tertiary_live_bytes']}")

    # 3. Reads are still disk-speed: the staged segments remain cached.
    t0 = app.time
    assert handle.read(app) == payload
    print(f"read while cached: {fmt_time(app.time - t0)} "
          f"({fmt_rate(2 * MB / (app.time - t0))})")

    # 4. Eject the cache; the next read demand-fetches from the jukebox.
    client.drop_caches(app)
    t0 = app.time
    assert handle.read(app) == payload
    client.close(app, handle)
    print(f"read after eject:  {fmt_time(app.time - t0)} "
          f"({fs.stats.demand_fetches} demand fetches, "
          f"{bed.jukebox.swap_count} media swaps)")

    # 5. Crash and remount: everything (including the cache directory)
    #    is rebuilt from the media.
    fs.checkpoint()
    bed2 = remount(bed)
    client2 = open_node(bed2)
    h2 = client2.open(app, "/data/results.bin")
    assert h2.read(app) == payload
    h2.close(app)
    print(f"remount after crash: file intact, "
          f"{len(bed2.fs.cache)} cache lines rebuilt")
    print("quickstart complete.")


if __name__ == "__main__":
    main()
