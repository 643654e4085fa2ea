"""Tests for the consistency checker, and checker-verified stress runs."""

import os
import random

from tests.conftest import HLBed
from repro.lfs.check import check_filesystem
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.lfs.filesystem import LFS
from repro.persist.format import check_persist_slots
from repro.util.units import KB, MB


class TestCheckerOnHealthyFS:
    def test_fresh_lfs_clean(self, lfs):
        report = check_filesystem(lfs)
        assert report.ok, report.errors

    def test_populated_lfs_clean(self, lfs):
        lfs.mkdir("/d")
        for i in range(10):
            lfs.write_path(f"/d/f{i}", os.urandom(50 * KB))
        lfs.checkpoint()
        report = check_filesystem(lfs)
        assert report.ok, report.errors
        assert report.files_checked >= 11

    def test_fresh_highlight_clean(self, hl):
        report = check_filesystem(hl.fs)
        assert report.ok, report.errors

    def test_after_migration_clean(self, hl):
        hl.fs.write_path("/m", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/m")
        hl.migrator.flush()
        hl.fs.checkpoint()
        report = check_filesystem(hl.fs)
        assert report.ok, report.errors

    def test_after_eject_and_fetch_clean(self, hl):
        hl.fs.write_path("/m", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/m")
        hl.migrator.flush()
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        hl.fs.read_path("/m", 0, 8 * KB)
        report = check_filesystem(hl.fs)
        assert report.ok, report.errors

class TestCheckerDetectsDamage:
    def test_detects_bad_imap_daddr(self, lfs):
        lfs.write_path("/x", b"abc")
        lfs.checkpoint()
        inum = lfs.lookup("/x")
        lfs.ifile.imap_entry(inum).daddr = 5  # boot area: nonsense
        lfs._inodes.pop(inum, None)
        report = check_filesystem(lfs)
        assert not report.ok

    def test_detects_live_overflow(self, lfs):
        lfs.ifile.seguse(0).live_bytes = 10 * MB
        report = check_filesystem(lfs)
        assert any("exceed" in e for e in report.errors)

    def test_detects_double_active(self, lfs):
        from repro.lfs.ifile import SEG_ACTIVE
        lfs.ifile.seguse(3).flags |= SEG_ACTIVE
        report = check_filesystem(lfs)
        assert any("active" in e for e in report.errors)

    def test_detects_cache_tag_mismatch(self, hl):
        hl.fs.write_path("/m", os.urandom(MB))
        hl.fs.checkpoint()
        hl.migrator.migrate_file("/m")
        hl.migrator.flush()
        tsegno = hl.fs.cache.lines()[0]
        disk_segno = hl.fs.cache.lookup(tsegno)
        hl.fs.ifile.seguse(disk_segno).cache_tag = 12345
        report = check_filesystem(hl.fs)
        assert any("tag" in e for e in report.errors)

    def test_detects_allocation_cursor_damage(self, hl):
        hl.fs.tsegfile.volumes[0].next_free = 9999
        report = check_filesystem(hl.fs)
        assert any("next_free" in e for e in report.errors)


class TestCheckerOracle:
    """The dict-model oracle: path -> bytes the tree must contain."""

    def test_matching_oracle_clean(self, lfs):
        oracle = {}
        for i in range(5):
            oracle[f"/o{i}"] = os.urandom(30 * KB)
            lfs.write_path(f"/o{i}", oracle[f"/o{i}"])
        lfs.checkpoint()
        report = check_filesystem(lfs, oracle=oracle)
        assert report.ok, report.errors

    def test_detects_content_divergence(self, lfs):
        lfs.write_path("/o", b"a" * (20 * KB))
        lfs.checkpoint()
        report = check_filesystem(lfs, oracle={"/o": b"b" * (20 * KB)})
        assert any("differs from oracle" in e for e in report.errors)

    def test_detects_missing_file(self, lfs):
        report = check_filesystem(lfs, oracle={"/never-written": b"x"})
        assert any("read-back failed" in e for e in report.errors)

    def test_oracle_survives_remount(self, lfs, small_disk):
        oracle = {"/keep": os.urandom(100 * KB)}
        lfs.write_path("/keep", oracle["/keep"])
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        report = check_filesystem(fs2, oracle=oracle)
        assert report.ok, report.errors


class TestCheckerPersistSlots:
    """Checkpoint-slot validation when a persistence area is anchored:
    fsck proper leaves the slots to ``check_persist_slots``."""

    @staticmethod
    def _persist_bed():
        from repro.persist import PersistManager
        bed = HLBed()
        return bed, PersistManager(bed.fs)

    @staticmethod
    def _check(fs):
        report = check_filesystem(fs)
        check_persist_slots(fs, fs.actor, report)
        return report

    def test_no_persist_root_skips_validation(self, hl):
        assert hl.fs.sb.persist_root == 0
        report = self._check(hl.fs)
        assert report.ok and not report.warnings, report.errors

    def test_valid_slots_clean(self):
        bed, _pm = self._persist_bed()
        bed.fs.write_path("/p", os.urandom(100 * KB))
        bed.fs.checkpoint()
        report = self._check(bed.fs)
        assert report.ok and not report.warnings, report.errors

    def test_single_corrupt_slot_warns(self):
        from repro.persist.format import SLOT_BASES
        bed, _pm = self._persist_bed()
        bed.fs.write_path("/p", os.urandom(50 * KB))
        bed.fs.checkpoint()
        bed.fs.write_path("/q", os.urandom(50 * KB))
        bed.fs.checkpoint()  # both slots now hold images
        bed.fs.dev_write(bed.app, SLOT_BASES[0],
                         b"\xff" * 16 + b"\x00" * (4 * KB - 16))
        report = self._check(bed.fs)
        assert report.ok, report.errors
        assert any("undecodable" in w for w in report.warnings)

    def test_all_slots_corrupt_errors(self):
        from repro.persist.format import SLOT_BASES
        bed, _pm = self._persist_bed()
        bed.fs.checkpoint()
        for base in SLOT_BASES:
            bed.fs.dev_write(bed.app, base,
                             b"\xff" * 16 + b"\x00" * (4 * KB - 16))
        report = self._check(bed.fs)
        assert any("no persistence slot" in e for e in report.errors)

    def test_future_serial_errors(self):
        from repro.persist.format import (SLOT_BASES, PersistImage,
                                          encode_slot)
        bed, _pm = self._persist_bed()
        bed.fs.checkpoint()
        bogus = PersistImage(serial=10_000, sections={})
        bed.fs.dev_write(bed.app, SLOT_BASES[1], encode_slot(bogus))
        report = self._check(bed.fs)
        assert any("ahead of" in e for e in report.errors)


class TestCheckerImapCleanSegment:
    def test_detects_inode_in_clean_segment(self, lfs):
        from repro.lfs.ifile import SEG_CLEAN
        lfs.write_path("/x", b"abc" * 2000)
        lfs.checkpoint()
        inum = lfs.lookup("/x")
        segno = lfs.segno_of(lfs.ifile.imap_entry(inum).daddr)
        lfs.ifile.seguse(segno).flags = SEG_CLEAN
        report = check_filesystem(lfs)
        assert any("clean segment" in e for e in report.errors)


class TestCheckerVerifiedStress:
    """Random operation storms, then the checker must pass."""

    def test_lfs_churn_clean_cycle(self, lfs):
        rng = random.Random(7)
        for round_no in range(4):
            for i in range(6):
                lfs.write_path(f"/r{round_no}_{i}",
                               os.urandom(rng.randrange(1, 300) * KB))
            lfs.sync()
            for i in range(0, 6, 2):
                lfs.unlink(f"/r{round_no}_{i}")
            Cleaner(lfs, GreedyPolicy(), target_clean=10_000,
                    max_per_pass=10).clean_pass()
        lfs.checkpoint()
        report = check_filesystem(lfs)
        assert report.ok, report.errors

    def test_lfs_stress_survives_remount(self, lfs, small_disk):
        rng = random.Random(8)
        files = {}
        for i in range(12):
            path = f"/s{i}"
            files[path] = os.urandom(rng.randrange(1, 200) * KB)
            lfs.write_path(path, files[path])
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        report = check_filesystem(fs2)
        assert report.ok, report.errors
        for path, payload in files.items():
            assert fs2.read_path(path) == payload

    def test_highlight_full_lifecycle_clean(self):
        bed = HLBed()
        fs, app = bed.fs, bed.app
        rng = random.Random(9)
        fs.mkdir("/w")
        paths = []
        for i in range(8):
            path = f"/w/f{i}"
            fs.write_path(path, os.urandom(rng.randrange(50, 400) * KB))
            paths.append(path)
        fs.checkpoint()
        app.sleep(100)
        for path in paths[:5]:
            bed.migrator.migrate_file(path)
        bed.migrator.flush()
        # updates kill some tertiary data
        for path in paths[:2]:
            fs.write_path(path, os.urandom(60 * KB))
        fs.sync()
        # eject, re-fetch, clean disk residue
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        for path in paths:
            fs.read_path(path, 0, 4 * KB)
        Cleaner(fs, GreedyPolicy(), target_clean=10_000,
                max_per_pass=50).clean_pass()
        fs.checkpoint()
        report = check_filesystem(fs)
        assert report.ok, report.errors

    def test_highlight_crash_cycle_clean(self):
        bed = HLBed()
        bed.fs.write_path("/c", os.urandom(MB))
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/c")
        bed.migrator.flush()
        bed.fs.checkpoint()
        for _ in range(3):
            fs = bed.remount()
            report = check_filesystem(fs)
            assert report.ok, report.errors
            fs.write_path("/extra", os.urandom(100 * KB))
            fs.checkpoint()
