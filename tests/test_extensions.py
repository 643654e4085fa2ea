"""Tests for the Future-Work extensions: tertiary cleaner, delayed
write-out (the scheduler's write-out queue), segment replicas."""

import os

import pytest

from tests.conftest import HLBed
from repro import obs
from repro.core.highlight import HighLightConfig
from repro.core.replicas import ReplicaManager
from repro.core.tcleaner import TertiaryCleaner
from repro.util.units import MB


def _migrate_some(bed, paths_bytes, flush_cache=True):
    data = {}
    for path, size in paths_bytes.items():
        data[path] = os.urandom(size)
        bed.fs.write_path(path, data[path])
    bed.fs.checkpoint()
    bed.app.sleep(100)
    for path in paths_bytes:
        bed.migrator.migrate_file(path)
    bed.migrator.flush()
    bed.fs.checkpoint()
    if flush_cache:
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
    return data


class TestTertiaryCleaner:
    def _fragmented_bed(self):
        """Fill volume 0, then kill most of its data by rewriting."""
        bed = HLBed(platter_bytes=4 * MB)
        data = _migrate_some(bed, {f"/v{i}": MB for i in range(4)},
                             flush_cache=False)
        # volume 0 (4MB effective) is now exhausted; updates kill its data
        keep = "/v3"
        for path in list(data):
            if path == keep:
                continue
            inum = bed.fs.lookup(path)
            fresh = os.urandom(len(data[path]))
            bed.fs.write(inum, 0, fresh)
            data[path] = fresh
        bed.fs.sync()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        return bed, data, keep

    def test_select_victim_prefers_dead_volume(self):
        bed, _data, _keep = self._fragmented_bed()
        cleaner = TertiaryCleaner(bed.fs, bed.migrator)
        victim = cleaner.select_victim()
        assert victim == 0

    def test_clean_volume_preserves_live_data(self):
        bed, data, keep = self._fragmented_bed()
        cleaner = TertiaryCleaner(bed.fs, bed.migrator)
        cleaner.clean_volume(cleaner.select_victim())
        bed.fs.checkpoint()
        for path, payload in data.items():
            assert bed.fs.read_path(path) == payload, path

    def test_cleaned_volume_reusable(self):
        bed, _data, _keep = self._fragmented_bed()
        cleaner = TertiaryCleaner(bed.fs, bed.migrator)
        assert cleaner.clean_volume(cleaner.select_victim()) >= 0
        meta = bed.fs.tsegfile.volumes[0]
        assert meta.next_free == 0
        assert not meta.marked_full
        assert bed.fs.tsegfile.live_bytes(0) == 0

    def test_live_volume_not_selected(self):
        bed = HLBed(platter_bytes=4 * MB)
        _migrate_some(bed, {"/keep": 3 * MB})
        cleaner = TertiaryCleaner(bed.fs, bed.migrator,
                                  live_fraction_threshold=0.5)
        assert cleaner.select_victim() is None

    def test_refuses_consuming_volume(self):
        bed = HLBed()
        _migrate_some(bed, {"/x": MB})
        cleaner = TertiaryCleaner(bed.fs, bed.migrator)
        with pytest.raises(Exception):
            cleaner.clean_volume(bed.fs.tsegfile.cur_volume)


class TestDelayedWriteout:
    """The §5.4 delayed write-out policy, as the scheduler's write-out
    queue implements it: segments wait for an idle-period drain, and a
    full queue forces its oldest entry out."""

    @staticmethod
    def _delayed_bed(queue_limit):
        return HLBed(config=HighLightConfig(
            sched_mode="scheduled", sched_writeout_queue_limit=queue_limit))

    def test_segments_accumulate_until_drain(self):
        bed = self._delayed_bed(queue_limit=8)
        sched = bed.fs.sched
        payload = os.urandom(2 * MB)
        bed.fs.write_path("/d", payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/d")
        bed.migrator.flush()
        pending = sched.queued()
        assert pending >= 2
        assert bed.fs.ioserver.segments_written == 0
        # idle period arrives
        drained = sched.pump(bed.app)
        assert drained == pending
        assert sched.queued() == 0
        assert bed.fs.ioserver.segments_written >= 2
        assert bed.fs.read_path("/d") == payload

    def test_overflow_forces_oldest_out(self):
        bed = self._delayed_bed(queue_limit=1)
        sched = bed.fs.sched
        bed.fs.write_path("/d", os.urandom(3 * MB))
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/d")
        bed.migrator.flush()
        assert sched.forced_writeouts >= 1
        assert sched.queued() <= 1
        assert bed.fs.ioserver.segments_written >= 1


class TestReplicaManager:
    def _replicated_bed(self):
        bed = HLBed(n_platters=6, platter_bytes=8 * MB)
        manager = ReplicaManager(bed.fs, copies=1)
        data = _migrate_some(bed, {"/r": MB}, flush_cache=False)
        return bed, manager, data

    def test_replicas_catalogued(self):
        bed, manager, _ = self._replicated_bed()
        assert manager.replicas_written >= 1
        assert manager.catalog

    def test_replicas_not_live(self):
        bed, manager, _ = self._replicated_bed()
        for locations in manager.catalog.values():
            for vol, seg in locations:
                assert bed.fs.tsegfile.seguse(vol, seg).live_bytes == 0

    def test_fetch_uses_closest_copy(self):
        bed, manager, data = self._replicated_bed()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        # Load a replica's volume into a drive; the primary's volume may
        # get evicted, making the replica "closest".
        tsegno = next(iter(manager.catalog))
        rvol, _rseg = manager.catalog[tsegno][0]
        rvol_id = bed.fs.tsegfile.volumes[rvol].volume_id
        pvol, _ = bed.fs.aspace.volume_of(tsegno)
        pvol_id = bed.fs.tsegfile.volumes[pvol].volume_id
        for drive in bed.jukebox.drives:
            drive.pinned = False
            if drive.loaded is not None:
                drive.on_unload()
        bed.jukebox.load(bed.app, rvol_id)
        assert bed.fs.read_path("/r") == data["/r"]
        assert manager.replica_reads >= 1

    def test_replica_content_identical(self):
        bed, manager, _ = self._replicated_bed()
        for tsegno, locations in manager.catalog.items():
            pvol, pseg = bed.fs.aspace.volume_of(tsegno)
            bps = bed.fs.aspace.blocks_per_seg
            primary = bed.footprint.read(
                bed.app, bed.fs.tsegfile.volumes[pvol].volume_id,
                pseg * bps, bps)
            for rvol, rseg in locations:
                replica = bed.footprint.read(
                    bed.app, bed.fs.tsegfile.volumes[rvol].volume_id,
                    rseg * bps, bps)
                assert replica == primary

    def test_validation(self):
        bed = HLBed()
        with pytest.raises(ValueError):
            ReplicaManager(bed.fs, copies=0)

    @staticmethod
    def _read_back(copies):
        """Migrate, eject and demand-read one 1 MB file; returns the
        read's (elapsed, Table 4 charges, ``segment_fetch`` events)."""
        bed = HLBed(n_platters=6, platter_bytes=8 * MB)
        manager = ReplicaManager(bed.fs, copies=copies) if copies else None
        data = _migrate_some(bed, {"/r": MB})
        assert manager is None or manager.catalog
        account = bed.fs.ioserver.account
        before = account.breakdown()

        def fetch_events():
            return sum(1 for e in obs.trace().events()
                       if e.etype == obs.EV_SEGMENT_FETCH)

        events = fetch_events()
        t0 = bed.app.time
        assert bed.fs.read_path("/r") == data["/r"]
        charged = {cat: secs - before.get(cat, 0.0)
                   for cat, secs in account.breakdown().items()
                   if secs != before.get(cat, 0.0)}
        return bed.app.time - t0, charged, fetch_events() - events

    def test_replicated_fetch_is_charged_like_a_single_copy_fetch(self):
        # The closest-copy read is IOServer.fetch itself, so Table 4 and
        # the trace see a replicated bed's demand fetch exactly as they
        # see a single-copy one (same elapsed time, same categories).
        elapsed, charged, events = self._read_back(copies=0)
        r_elapsed, r_charged, r_events = self._read_back(copies=1)
        assert events == r_events == 2
        assert r_elapsed == pytest.approx(elapsed, rel=1e-9)
        assert r_charged == pytest.approx(charged, rel=1e-9)
        assert set(charged) == {"queuing", "footprint_read", "disk_write"}
        assert sum(charged.values()) == pytest.approx(6.7829, abs=1e-4)

    def test_scheduled_writeout_replicates_inside_its_dispatch(self):
        bed = HLBed(n_platters=6, platter_bytes=8 * MB,
                    config=HighLightConfig(sched_mode="scheduled"))
        manager = ReplicaManager(bed.fs, copies=1)
        bed.fs.write_path("/s", os.urandom(2 * MB))
        bed.fs.checkpoint()
        bed.app.sleep(100)
        bed.migrator.migrate_file("/s")
        bed.migrator.flush()
        # Queued, not yet on tertiary storage: nothing to copy yet.
        assert bed.fs.sched.queued() and not manager.catalog
        # Strict accounting raises if the replica's line read or
        # Footprint write escaped the Table 4 categories.
        bed.fs.sched.pump(bed.app)
        log = bed.fs.sched.dispatch_log
        assert log and all(abs(r.charged - (r.wait + r.service)) <= 1e-6
                           for r in log)
        written = [t for t, _when, _nbytes in bed.fs.ioserver.writeout_log]
        assert written and all(manager.catalog.get(t) for t in written)
        assert manager.replicas_written == len(written)
