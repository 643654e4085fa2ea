"""Detailed service-process / I/O-server behaviour tests."""

import os

from tests.conftest import HLBed
from repro.sched.scheduler import (CAT_DISK_WRITE, CAT_FOOTPRINT_READ,
                                   CAT_FOOTPRINT_WRITE, CAT_IOSERVER_READ)
from repro.core.service import REQUEST_OVERHEAD
from repro.sim.scheduler import TimedQueue
from repro.util.units import KB, MB


def _staged(hl, size=MB):
    payload = os.urandom(size)
    hl.fs.write_path("/io", payload)
    hl.fs.checkpoint()
    hl.migrator.migrate_file("/io")
    hl.migrator.flush()
    return payload


class TestIOServerAccounting:
    def test_writeout_charges_categories(self, hl):
        _staged(hl)
        acct = hl.fs.ioserver.account
        assert acct.get(CAT_FOOTPRINT_WRITE) > 0
        assert acct.get(CAT_IOSERVER_READ) > 0
        # MO writes dominate the raw-disk reads (Table 4's shape).
        assert acct.get(CAT_FOOTPRINT_WRITE) > acct.get(CAT_IOSERVER_READ)

    def test_fetch_charges_categories(self, hl):
        _staged(hl)
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        hl.fs.read_path("/io", 0, 4 * KB)
        acct = hl.fs.ioserver.account
        assert acct.get(CAT_FOOTPRINT_READ) > 0
        assert acct.get(CAT_DISK_WRITE) > 0

    def test_writeout_log_records_completions(self, hl):
        _staged(hl, size=2 * MB)
        log = hl.fs.ioserver.writeout_log
        assert len(log) >= 2
        times = [end for _t, end, _n in log]
        assert times == sorted(times)
        assert all(n == hl.fs.config.segment_size for _t, _e, n in log)

    def test_segments_written_counter(self, hl):
        _staged(hl, size=2 * MB)
        assert hl.fs.ioserver.segments_written >= 2

    def test_fetch_counter(self, hl):
        _staged(hl)
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        hl.fs.read_path("/io", 0, 4 * KB)
        assert hl.fs.ioserver.segments_fetched >= 1


class TestWriteDrivePinning:
    def test_write_drive_pinned_on_first_writeout(self, hl):
        _staged(hl)
        vol0 = hl.fs.tsegfile.volumes[0].volume_id
        drive_idx = hl.jukebox.drive_holding(vol0)
        assert drive_idx is not None
        assert hl.jukebox.drives[drive_idx].pinned

    def test_reads_of_other_volumes_spare_write_drive(self):
        bed = HLBed(n_platters=4, platter_bytes=4 * MB)
        # Fill volume 0 and spill to volume 1.
        for i in range(6):
            bed.fs.write_path(f"/v{i}", os.urandom(MB))
        bed.fs.checkpoint()
        for i in range(6):
            bed.migrator.migrate_file(f"/v{i}")
        bed.migrator.flush()
        write_vol = bed.fs.tsegfile.volumes[
            bed.fs.tsegfile.cur_volume].volume_id
        write_drive = bed.jukebox.drive_holding(write_vol)
        # Demand reads for volume-0 data use the other drive.
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        bed.fs.read_path("/v0", 0, 4 * KB)
        assert bed.jukebox.drive_holding(write_vol) == write_drive


class TestRequestOverheads:
    def test_demand_fetch_includes_request_overhead(self, hl):
        _staged(hl)
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        t0 = hl.app.time
        hl.fs.read_path("/io", 0, 4 * KB)
        elapsed = hl.app.time - t0
        assert elapsed > REQUEST_OVERHEAD

    def test_cache_hit_skips_service(self, hl):
        _staged(hl)
        fetches = hl.fs.stats.demand_fetches
        hl.fs.drop_caches(drop_inodes=True)  # lines stay cached
        hl.fs.read_path("/io", 0, 4 * KB)
        assert hl.fs.stats.demand_fetches == fetches


class TestEjectSemantics:
    def test_eject_nonstaging_needs_no_copyout(self, hl):
        _staged(hl)
        writes = hl.fs.ioserver.segments_written
        tsegno = hl.fs.cache.lines()[0]
        hl.fs.service.eject(hl.app, tsegno)
        assert hl.fs.ioserver.segments_written == writes  # read-only line

    def test_eject_staging_forces_copyout(self, hl):
        hl.fs.write_path("/st", os.urandom(200 * KB))
        hl.fs.checkpoint()
        # Stage into an outbox nobody drains: no write-out is issued.
        hl.migrator.outbox = TimedQueue()
        hl.migrator.migrate_file("/st")
        hl.migrator.flush()
        tsegno = hl.migrator.outbox.get(hl.app)
        assert tsegno is not None
        assert hl.fs.cache.is_staging(tsegno)
        writes = hl.fs.ioserver.segments_written
        hl.fs.service.eject(hl.app, tsegno)  # must copy out first
        assert hl.fs.ioserver.segments_written == writes + 1
        assert not hl.fs.cache.contains(tsegno)
        # And the data is safe on tertiary.
        hl.fs.drop_caches(drop_inodes=True)
        assert len(hl.fs.read_path("/st")) == 200 * KB
