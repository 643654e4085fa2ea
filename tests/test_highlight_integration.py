"""End-to-end HighLight tests: hierarchy round trips, crash recovery,
prefetch, cleaner interaction, policy-driven runs, on-line growth."""

import os

import pytest

from tests.conftest import HLBed
from repro.blockdev.datapath import bytes_copied_total
from repro.core.migrator import Migrator
from repro.core.policies import (AccessRangeTracker, BlockRangePolicy,
                                 STPPolicy)
from repro.core.prefetch import NoPrefetch, SequentialPrefetch, UnitPrefetch
from repro.lfs.check import check_filesystem
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.lfs.constants import BLOCK_SIZE, SEGMENT_SIZE
from repro.util.units import KB, MB


class TestHierarchyRoundTrip:
    def test_policy_driven_run(self, hl):
        fs, app = hl.fs, hl.app
        fs.mkdir("/arch")
        data = {}
        for i in range(4):
            path = f"/arch/f{i}"
            data[path] = os.urandom(200 * KB)
            fs.write_path(path, data[path])
        fs.checkpoint()
        app.sleep(3600)
        migrator = Migrator(fs, policy=STPPolicy(target_bytes=MB))
        stats = migrator.run_once()
        assert stats.files_migrated >= 4
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        for path, payload in data.items():
            assert fs.read_path(path) == payload

    def test_round_trip_copies_only_the_staging_gather(self, hl):
        """The host copy ledger over migrate -> eject -> demand fetch:
        the append into the staging buffer is the only copy, so each
        tertiary segment costs at most ~1.1 segment sizes (summary
        blocks and inode tails ride along) — write-out to the platter
        and the fetch back into a cache line move refs, not bytes."""
        fs, app = hl.fs, hl.app
        data = {f"/seg{i}": os.urandom(SEGMENT_SIZE) for i in range(4)}
        for path, payload in data.items():
            fs.write_path(path, payload)
        fs.checkpoint()
        app.sleep(3600)
        before = bytes_copied_total()
        for path in data:
            hl.migrator.migrate_file(path, app, unit_tag="round-trip")
        hl.migrator.flush(app)
        fs.sched.pump(app)
        fs.service.flush_cache(app)
        tsegs = sorted(t for t, unit in hl.migrator.hint_table.items()
                       if unit == "round-trip")
        fetched = fs.stats.demand_fetches
        for tseg in tsegs:
            fs.service.demand_fetch(app, tseg)
        copied = bytes_copied_total() - before
        assert len(tsegs) >= len(data)
        assert fs.stats.demand_fetches - fetched == len(tsegs)
        assert 0 < copied <= 1.1 * SEGMENT_SIZE * len(tsegs)
        for path, payload in data.items():
            assert fs.read_path(path) == payload

    def test_directory_migration(self, hl):
        """Directories are file-system data too: they can migrate."""
        fs, app = hl.fs, hl.app
        fs.mkdir("/dir")
        for i in range(30):
            fs.write_path(f"/dir/f{i}", b"x")
        fs.checkpoint()
        dir_inum = fs.lookup("/dir")
        hl.migrator.migrate_file(dir_inum)
        hl.migrator.flush()
        ino = fs.get_inode(dir_inum)
        assert fs.aspace.is_tertiary_segno(fs.aspace.segno_of(fs.bmap(ino, 0)))
        assert len(fs.readdir("/dir")) == 30  # readable via the cache

    def test_mixed_residency_file(self, hl):
        """Blocks of one file split across hierarchy levels (paper §4)."""
        fs = hl.fs
        payload = os.urandom(30 * BLOCK_SIZE)
        fs.write_path("/mix", payload)
        fs.checkpoint()
        hl.migrator.migrate_file("/mix", lbn_range=(10, 20))
        hl.migrator.flush()
        assert fs.read_path("/mix") == payload
        ino = fs.get_inode(fs.lookup("/mix"))
        kinds = {fs.aspace.is_tertiary_segno(fs.aspace.segno_of(fs.bmap(ino, lbn)))
                 for lbn in range(30)}
        assert kinds == {True, False}


class TestCrashRecovery:
    def test_remount_preserves_hierarchy(self):
        bed = HLBed()
        payload = os.urandom(900 * KB)
        bed.fs.write_path("/keep", payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/keep")
        bed.migrator.flush()
        bed.fs.checkpoint()
        fs2 = bed.remount()
        assert fs2.read_path("/keep") == payload

    def test_cache_directory_survives_crash(self):
        bed = HLBed()
        bed.fs.write_path("/c", os.urandom(MB))
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/c")
        bed.migrator.flush()
        bed.fs.checkpoint()
        lines = set(bed.fs.cache.lines())
        fs2 = bed.remount()
        assert set(fs2.cache.lines()) == lines
        # Reads are served from the rebuilt cache: no fetch needed.
        fetches = fs2.stats.demand_fetches
        fs2.read_path("/c", 0, 4096)
        assert fs2.stats.demand_fetches == fetches

    def test_tsegfile_state_survives_crash(self):
        bed = HLBed()
        bed.fs.write_path("/t", os.urandom(MB))
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/t")
        bed.migrator.flush()
        bed.fs.checkpoint()
        live = bed.fs.tsegfile.live_bytes(0)
        next_free = bed.fs.tsegfile.volumes[0].next_free
        fs2 = bed.remount()
        assert fs2.tsegfile.live_bytes(0) == live
        assert fs2.tsegfile.volumes[0].next_free == next_free

    def test_checkpoint_seals_open_staging(self):
        """A checkpoint must finalize any half-built staging segment so a
        crash cannot strand pointers at unsummarised tertiary blocks."""
        bed = HLBed()
        bed.fs.write_path("/small", os.urandom(50 * KB))
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/small")  # staging segment still open
        bed.fs.checkpoint()                  # must flush it
        fs2 = bed.remount()
        report = check_filesystem(fs2)       # every segment describes itself
        assert report.ok, report.errors
        assert fs2.read_path("/small")
        fs2.service.flush_cache(fs2.actor)
        fs2.drop_caches(drop_inodes=True)
        assert len(fs2.read_path("/small")) == 50 * KB


class TestPrefetch:
    def _two_unit_setup(self):
        bed = HLBed()
        fs, app = bed.fs, bed.app
        fs.mkdir("/u")
        paths = [f"/u/f{i}" for i in range(4)]
        for p in paths:
            fs.write_path(p, os.urandom(600 * KB))
        fs.checkpoint()
        app.sleep(100)
        for p in paths:
            bed.migrator.migrate_file(p, unit_tag="/u")
        bed.migrator.flush()
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        return bed, paths

    def test_unit_prefetch_pulls_peers(self):
        bed, paths = self._two_unit_setup()
        bed.fs.set_prefetcher(UnitPrefetch(bed.migrator.hint_table))
        bed.fs.read_path(paths[0], 0, 4096)
        # All the unit's segments should now be cached: reading the other
        # files triggers no further demand fetches.
        fetches = bed.fs.stats.demand_fetches
        for p in paths[1:]:
            bed.fs.read_path(p, 0, 4096)
        assert bed.fs.stats.demand_fetches == fetches

    def test_no_prefetch_fetches_per_miss(self):
        bed, paths = self._two_unit_setup()
        bed.fs.set_prefetcher(NoPrefetch())
        for p in paths:
            bed.fs.read_path(p, 0, 4096)
        assert bed.fs.stats.demand_fetches >= 2

    def test_sequential_prefetch_on_large_file(self):
        bed = HLBed()
        payload = os.urandom(3 * MB)
        bed.fs.write_path("/seq", payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/seq")
        bed.migrator.flush()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        bed.fs.set_prefetcher(SequentialPrefetch(depth=4))
        bed.fs.read_path("/seq", 0, 8 * KB)
        # The demand fetch prefetched the following segments.
        assert len(bed.fs.cache) >= 3

    def test_prefetch_validation(self):
        with pytest.raises(ValueError):
            SequentialPrefetch(depth=0)


class TestCleanerInteraction:
    def test_cleaner_skips_cached_segments(self, hl):
        fs = hl.fs
        fs.write_path("/f", os.urandom(MB))
        fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        cached_disk_segs = {fs.cache.lookup(t) for t in fs.cache.lines()}
        cleaner = Cleaner(fs, GreedyPolicy(), target_clean=10_000,
                          max_per_pass=100)
        cleaner.clean_pass()
        for tsegno in fs.cache.lines():
            assert fs.cache.lookup(tsegno) in cached_disk_segs

    def test_cleaner_reclaims_migrated_residue(self, hl):
        """After migration the old disk copies are dead: cleanable."""
        fs = hl.fs
        fs.write_path("/f", os.urandom(2 * MB))
        fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        fs.checkpoint()
        clean_before = fs.ifile.clean_count()
        Cleaner(fs, GreedyPolicy(), target_clean=10_000,
                max_per_pass=100).clean_pass()
        assert fs.ifile.clean_count() > clean_before
        assert fs.read_path("/f")  # still intact

    def test_clean_famine_reclaims_cache_line(self):
        """pick_clean_segment falls back to surrendering a cache line."""
        bed = HLBed(disk_bytes=24 * MB)
        fs = bed.fs
        fs.write_path("/m", os.urandom(MB))
        fs.checkpoint()
        bed.migrator.migrate_file("/m")
        bed.migrator.flush()
        lines_before = len(fs.cache)
        assert lines_before > 0
        # Exhaust clean segments with fresh data until the fallback fires.
        try:
            for i in range(30):
                fs.write_path(f"/fill{i}", os.urandom(MB))
                fs.sync()
        except Exception:
            pass
        assert len(fs.cache) < lines_before or fs.ifile.clean_count() > 0


class TestBlockRangePipeline:
    def test_tracker_driven_migration(self):
        bed = HLBed()
        fs, app = bed.fs, bed.app
        tracker = AccessRangeTracker()
        fs.range_tracker = tracker
        payload = os.urandom(40 * BLOCK_SIZE)
        fs.write_path("/rel", payload)
        fs.checkpoint()
        inum = fs.lookup("/rel")
        # Hot head, cold tail.
        app.sleep(1000)
        fs.read(inum, 0, 4 * BLOCK_SIZE)
        policy = BlockRangePolicy(tracker, target_bytes=100 * MB,
                                  min_age=500.0)
        migrator = Migrator(fs, policy=policy)
        stats = migrator.run_once()
        assert stats.blocks_migrated > 0
        ino = fs.get_inode(inum)
        assert fs.aspace.is_disk_daddr(fs.bmap(ino, 0))       # hot stays
        assert fs.aspace.is_tertiary_segno(fs.aspace.segno_of(fs.bmap(ino, 30)))  # cold went
        assert fs.read_path("/rel") == payload


class TestOnlineGrowth:
    def test_add_tertiary_volume(self, hl):
        fs = hl.fs
        nvol = len(fs.tsegfile.volumes)
        # Claim part of the dead zone for a new volume (paper §6.3).
        new_idx = fs.aspace.add_volume(10)
        from repro.core.tsegfile import VolumeMeta
        fs.tsegfile.volumes.append(VolumeMeta(volume_id=100, nsegs=10))
        fs.tsegfile.segs.append([type(fs.tsegfile.seguse(0, 0))()
                                 for _ in range(10)])
        assert new_idx == nvol
        segno = fs.aspace.tertiary_segno(new_idx, 0)
        assert fs.aspace.is_tertiary_segno(segno)

    def test_grow_disk_segments(self, hl):
        fs = hl.fs
        before = fs.ifile.nsegs
        fs.ifile.grow(4)
        fs.aspace.grow_disk(4)
        assert fs.ifile.nsegs == before + 4
        assert fs.aspace.is_disk_segno(before + 3)
