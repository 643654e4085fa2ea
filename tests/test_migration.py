"""Integration tests: migrator, service process, I/O server, demand fetch."""

import os

import pytest

from tests.conftest import HLBed
from repro.core.migrator import MigrationPipeline
from repro.core.tcleaner import TertiaryCleaner
from repro.errors import MigrationError
from repro.lfs.check import check_filesystem
from repro.lfs.constants import BLOCK_SIZE, NDADDR
from repro.sim.actor import Actor
from repro.util.units import KB, MB


class TestWholeFileMigration:
    def test_data_intact_through_cache(self, hl):
        payload = os.urandom(700_000)
        hl.fs.write_path("/f", payload)
        hl.fs.checkpoint()
        hl.app.sleep(100)
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        assert hl.fs.read_path("/f") == payload

    def test_pointers_become_tertiary(self, hl):
        hl.fs.write_path("/f", b"m" * (3 * BLOCK_SIZE))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f")
        ino = hl.fs.get_inode(hl.fs.lookup("/f"))
        for lbn in range(3):
            daddr = hl.fs.bmap(ino, lbn)
            assert hl.fs.aspace.is_tertiary_segno(hl.fs.aspace.segno_of(daddr))

    def test_old_disk_segments_lose_liveness(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        live_before = sum(s.live_bytes for s in hl.fs.ifile.segs
                          if not s.is_cached())
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        live_after = sum(s.live_bytes for s in hl.fs.ifile.segs
                         if not s.is_cached())
        assert live_after < live_before

    def test_tertiary_liveness_recorded(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        assert hl.fs.tsegfile.live_bytes(0) >= MB

    def test_indirect_blocks_migrate(self, hl):
        size = (NDADDR + 10) * BLOCK_SIZE  # needs a single indirect
        hl.fs.write_path("/ind", os.urandom(size))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/ind")
        ino = hl.fs.get_inode(hl.fs.lookup("/ind"))
        assert hl.fs.aspace.is_tertiary_segno(hl.fs.aspace.segno_of(ino.ib[0]))

    def test_inode_migration_optional(self):
        bed = HLBed(migrate_inodes=True)
        payload = os.urandom(100_000)
        bed.fs.write_path("/f", payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/f")
        bed.migrator.flush()
        inum = bed.fs.lookup("/f")
        entry = bed.fs.ifile.imap_entry(inum)
        assert bed.fs.aspace.is_tertiary_segno(bed.fs.aspace.segno_of(entry.daddr))
        # Reading through the migrated inode still works.
        bed.fs._inodes.pop(inum, None)
        assert bed.fs.read_path("/f") == payload

    def test_tertiary_clean_keeps_blocks_staged_after_an_inode(self):
        # With inodes migrating, /a's inode block lands between /a's and
        # /b's data in one staging segment; every segment walker — fsck's
        # summary check among them — must still find /b's blocks at their
        # real addresses.
        self._stage_clean_restage(migrate_inodes=True)

    def test_tertiary_clean_with_inodes_left_on_disk(self):
        self._stage_clean_restage(migrate_inodes=False)

    @staticmethod
    def _stage_clean_restage(migrate_inodes):
        """Migrate two files, tertiary-clean their volume, migrate a
        third over it; fsck (every segment describing itself) must be
        clean after the migration and at the end."""
        bed = HLBed(migrate_inodes=migrate_inodes)
        data = {"/a": os.urandom(40 * KB), "/b": os.urandom(40 * KB)}
        for path, payload in data.items():
            bed.fs.write_path(path, payload)
        bed.fs.checkpoint()
        for path in data:
            bed.migrator.migrate_file(path)
        bed.migrator.flush()
        report = check_filesystem(bed.fs)
        assert report.ok, report.errors
        bed.fs.tsegfile.mark_volume_full(0)
        TertiaryCleaner(bed.fs, bed.migrator, actor=bed.app).clean_volume(0)
        # The cleaned volume is consumed again, overwriting what it held.
        data["/c"] = os.urandom(200 * KB)
        bed.fs.write_path("/c", data["/c"])
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/c")
        bed.migrator.flush()
        bed.fs.checkpoint()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        for path, payload in data.items():
            assert bed.fs.read_path(path) == payload, path
        report = check_filesystem(bed.fs)
        assert report.ok, report.errors

    def test_unstable_file_flushed_first(self, hl):
        inum = hl.fs.create("/dirty")
        hl.fs.write(inum, 0, b"unstable" * 1000)  # never synced
        hl.migrator.migrate_file("/dirty")
        hl.migrator.flush()
        assert hl.fs.read_path("/dirty") == b"unstable" * 1000

    def test_actor_time_advances(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        t0 = hl.migrator.actor.time
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        assert hl.migrator.actor.time > t0

    def test_migrated_segments_marked_staged_then_sealed(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        for tsegno in hl.fs.cache.lines():
            assert not hl.fs.cache.is_staging(tsegno)

    def test_hint_table_records_units(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f", unit_tag="unitX")
        hl.migrator.flush()
        assert "unitX" in hl.migrator.hint_table.values()


class TestBlockRangeMigration:
    def test_partial_migration(self, hl):
        payload = os.urandom(20 * BLOCK_SIZE)
        hl.fs.write_path("/db", payload)
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/db", lbn_range=(10, 20))
        hl.migrator.flush()
        ino = hl.fs.get_inode(hl.fs.lookup("/db"))
        assert hl.fs.aspace.is_disk_daddr(hl.fs.bmap(ino, 0))
        assert hl.fs.aspace.is_tertiary_segno(hl.fs.aspace.segno_of(hl.fs.bmap(ino, 15)))
        assert hl.fs.read_path("/db") == payload

    def test_range_migration_keeps_inode_on_disk(self, hl):
        hl.fs.write_path("/db", os.urandom(20 * BLOCK_SIZE))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/db", lbn_range=(0, 5))
        hl.migrator.flush()
        inum = hl.fs.lookup("/db")
        entry = hl.fs.ifile.imap_entry(inum)
        hl.fs.checkpoint()
        assert hl.fs.aspace.is_disk_daddr(entry.daddr)


class TestDemandFetch:
    def _migrated(self, hl, size=600_000):
        payload = os.urandom(size)
        hl.fs.write_path("/f", payload)
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        hl.fs.checkpoint()
        return payload

    def test_eject_then_read_fetches(self, hl):
        payload = self._migrated(hl)
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        fetches_before = hl.fs.stats.demand_fetches
        assert hl.fs.read_path("/f") == payload
        assert hl.fs.stats.demand_fetches > fetches_before

    def test_second_read_hits_cache(self, hl):
        payload = self._migrated(hl)
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        hl.fs.read_path("/f")
        fetches = hl.fs.stats.demand_fetches
        hl.fs.drop_caches(drop_inodes=True)  # buffer cache only
        assert hl.fs.read_path("/f") == payload
        assert hl.fs.stats.demand_fetches == fetches

    def test_fetch_faster_when_cached(self, hl):
        self._migrated(hl)
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        t0 = hl.app.time
        hl.fs.read_path("/f", 0, 4096)
        cold = hl.app.time - t0
        hl.fs.drop_caches(drop_inodes=True)
        t0 = hl.app.time
        hl.fs.read_path("/f", 0, 4096)
        warm = hl.app.time - t0
        assert cold > warm * 5

    def test_write_after_migration_goes_to_disk_log(self, hl):
        self._migrated(hl)
        inum = hl.fs.lookup("/f")
        hl.fs.write(inum, 0, b"fresh!" * 100)
        hl.fs.sync()
        ino = hl.fs.get_inode(inum)
        assert hl.fs.aspace.is_disk_daddr(hl.fs.bmap(ino, 0))
        # Later blocks are still tertiary.
        assert hl.fs.aspace.is_tertiary_segno(hl.fs.aspace.segno_of(hl.fs.bmap(ino, 5)))
        assert hl.fs.read(inum, 0, 6) == b"fresh!"

    def test_update_kills_tertiary_liveness(self, hl):
        self._migrated(hl, size=MB)
        live0 = hl.fs.tsegfile.live_bytes(0)
        inum = hl.fs.lookup("/f")
        hl.fs.write(inum, 0, os.urandom(100 * BLOCK_SIZE))
        hl.fs.sync()
        assert hl.fs.tsegfile.live_bytes(0) <= live0 - 100 * BLOCK_SIZE


class TestEndOfMedium:
    def test_restage_on_next_volume(self):
        from repro.core.highlight import HighLightConfig
        # Volumes claim 8 MB nominal but really hold only 2 MB: the
        # I/O server hits EndOfMedium and must restage (paper §6.3).
        bed = HLBed(platter_bytes=8 * MB, config=HighLightConfig(
            expected_capacity="nominal"))
        for vol in bed.jukebox.volumes.values():
            vol.effective_capacity_blocks = (2 * MB) // 4096
        payload = os.urandom(4 * MB)
        bed.fs.write_path("/big", payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/big")
        bed.migrator.flush()
        assert bed.fs.tsegfile.volumes[0].marked_full
        # Every byte is still readable (restaged segments included).
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        assert bed.fs.read_path("/big") == payload

    def test_restage_skips_a_since_unlinked_file(self):
        from repro.core.highlight import HighLightConfig
        # Write-outs queue (scheduled mode), one file is unlinked while
        # its blocks still sit in staged lines, and the third line —
        # naming both files — is the one that hits end-of-medium: the
        # restage must treat the vanished inode as "not live", not die.
        bed = HLBed(platter_bytes=8 * MB, config=HighLightConfig(
            expected_capacity="nominal", sched_mode="scheduled"))
        for vol in bed.jukebox.volumes.values():
            vol.effective_capacity_blocks = (2 * MB) // 4096
        keep = os.urandom(MB)
        bed.fs.write_path("/gone", os.urandom(2 * MB))
        bed.fs.write_path("/keep", keep)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/gone")
        bed.migrator.migrate_file("/keep")
        bed.migrator.flush()
        bed.fs.unlink("/gone")
        bed.fs.sched.pump(bed.app)
        assert bed.fs.tsegfile.volumes[0].marked_full
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        assert bed.fs.read_path("/keep") == keep


    def test_replicas_on_nominal_capacity_volumes(self):
        from repro.core.highlight import HighLightConfig
        from repro.core.replicas import ReplicaManager
        # Replica writes meet the same early end-of-medium as primaries:
        # the volume is marked full and the copy lands on the next one.
        bed = HLBed(n_platters=6, platter_bytes=8 * MB,
                    config=HighLightConfig(expected_capacity="nominal"))
        for vol in bed.jukebox.volumes.values():
            vol.effective_capacity_blocks = (2 * MB) // 4096
        replicas = ReplicaManager(bed.fs, copies=1)
        payload = os.urandom(4 * MB)
        bed.fs.write_path("/big", payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/big")
        bed.migrator.flush()
        assert bed.fs.tsegfile.volumes[0].marked_full
        assert bed.fs.tsegfile.volumes[-1].marked_full  # replicas' first
        written = [t for t, _when, _n in bed.fs.ioserver.writeout_log]
        assert all(replicas.catalog.get(t) for t in written)
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        assert bed.fs.read_path("/big") == payload


class TestPipeline:
    def test_pipeline_migrates_and_overlaps(self, hl):
        payload = os.urandom(3 * MB)
        hl.fs.write_path("/pipe", payload)
        hl.fs.checkpoint()
        mig_actor, io_actor = Actor("mig"), Actor("io")
        mig_actor.sleep_until(hl.app.time)
        io_actor.sleep_until(hl.app.time)
        pipeline = MigrationPipeline(hl.fs, hl.migrator, ["/pipe"],
                                     migrator_actor=mig_actor,
                                     ioserver_actor=io_actor)
        pipeline.run()
        assert pipeline.migrator_done
        assert pipeline.finish_time >= pipeline.migrator_finish_time
        assert hl.fs.ioserver.segments_written >= 3
        assert hl.fs.read_path("/pipe") == payload

    def test_pipeline_writeout_restored_after_run(self, hl):
        hl.fs.write_path("/p", os.urandom(MB))
        hl.fs.checkpoint()
        pipeline = MigrationPipeline(hl.fs, hl.migrator, ["/p"])
        pipeline.run()
        assert hl.migrator.outbox is None


class TestServiceProcess:
    def test_flush_cache_empties(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        assert len(hl.fs.cache) > 0
        hl.fs.service.flush_cache(hl.app)
        assert len(hl.fs.cache) == 0

    def test_eject_unknown_raises(self, hl):
        with pytest.raises(MigrationError):
            hl.fs.service.writeout_line(hl.app, 42)

    def test_demand_fetch_idempotent(self, hl):
        hl.fs.write_path("/f", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/f")
        hl.migrator.flush()
        tsegno = hl.fs.cache.lines()[0]
        line = hl.fs.cache.lookup(tsegno)
        assert hl.fs.service.demand_fetch(hl.app, tsegno) == line
