"""Unit tests covering remaining corners: report formatting, cached bmap,
dirop summary flags, read-ahead ramp, errors hierarchy."""

import os

import pytest

from repro.bench.report import Comparison, TableReport, throughput_kbs
from repro.errors import (DeviceError, FilesystemError, MigrationError,
                          ReproError)
import repro.errors as errors_mod
from repro.lfs.constants import BLOCK_SIZE, NDADDR, UNASSIGNED
from repro.lfs.summary import SS_DIROP, SegmentSummary
from repro.lfs.cleaner import walk_segment
from repro.lfs.ufs import CLUSTER_BLOCKS
from repro.util.units import KB


class TestReport:
    def test_comparison_ratio(self):
        c = Comparison("x", paper=100.0, measured=150.0)
        assert c.ratio == 1.5
        assert "1.50x" in c.row()

    def test_comparison_no_paper_value(self):
        c = Comparison("x", paper=None, measured=5.0)
        assert c.ratio is None
        assert "-" in c.row()

    def test_table_report_render(self):
        rep = TableReport("Test Table")
        rep.add("row one", 10.0, 11.0)
        rep.notes.append("a note")
        out = rep.render()
        assert "Test Table" in out
        assert "row one" in out
        assert "note: a note" in out

    def test_throughput_kbs(self):
        assert throughput_kbs(10 * KB, 2.0) == 5.0
        assert throughput_kbs(1, 0.0) == float("inf")


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors_mod):
            obj = getattr(errors_mod, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError), name

    def test_family_structure(self):
        from repro.errors import (AddressError, FileNotFound, NoSpace,
                                  StagingFull)
        assert issubclass(AddressError, DeviceError)
        assert issubclass(NoSpace, FilesystemError)
        assert issubclass(FileNotFound, FilesystemError)
        assert issubclass(StagingFull, MigrationError)


class TestStagingAppendStrict:
    def _builder(self):
        from types import SimpleNamespace

        from repro.core.staging import StagingBuilder
        fs = SimpleNamespace(
            config=SimpleNamespace(blocks_per_seg=32, summary_size=512),
            aspace=SimpleNamespace(seg_base=lambda segno: segno * 32),
        )
        return StagingBuilder(fs, tsegno=200, disk_segno=1)

    def test_exact_block_accepted(self):
        from repro.errors import InvalidArgument
        b = self._builder()
        b.add_block(1, 0, b"\xaa" * BLOCK_SIZE)
        assert bytes(b.blocks[0]) == b"\xaa" * BLOCK_SIZE
        # Oversized or undersized payloads corrupt the staged image
        # silently if not rejected at the append boundary.
        with pytest.raises(InvalidArgument):
            b.add_block(1, 1, b"\xbb" * (BLOCK_SIZE + 1))
        with pytest.raises(InvalidArgument):
            b.add_block(1, 1, b"\xbb" * (BLOCK_SIZE - 1))
        # The failed appends consumed no payload slot.
        assert len(b.blocks) == 1

    def test_bad_buffer_anywhere_in_a_batch_changes_nothing(self):
        from repro.blockdev import datapath
        from repro.errors import InvalidArgument
        b = self._builder()
        b.add_block(1, 0, b"\xaa" * BLOCK_SIZE)
        good = b"\xbb" * BLOCK_SIZE
        catalogue = b.summary.pack(512)
        copied = datapath.bytes_copied_total()
        for bad_at in range(3):
            views = [good] * 3
            views[bad_at] = good[:-1]
            with pytest.raises(InvalidArgument):
                b.add_block_views(1, [1, 2, 3], views)
        with pytest.raises(InvalidArgument):
            b.add_block_views(1, [1, 2, 3], [good] * 2)
        # Every check ran before the first byte moved.
        assert b.summary.pack(512) == catalogue
        assert len(b.blocks) == 1
        assert datapath.bytes_copied_total() == copied
        assert b.add_block_views(1, [1, 2, 3], [good] * 3) == 200 * 32 + 2
        assert b.summary.finfos[0].blocks == [0, 1, 2, 3]
        assert datapath.bytes_copied_total() == copied + 3 * BLOCK_SIZE


class TestBmapCached:
    def test_direct_pointers_always_resolve(self, lfs):
        lfs.write_path("/f", b"x" * (2 * BLOCK_SIZE))
        lfs.sync()
        ino = lfs.get_inode(lfs.lookup("/f"))
        assert lfs.bmap_cached(ino, 0) == lfs.bmap(ino, 0)
        assert lfs.bmap_cached(ino, 1) == lfs.bmap(ino, 1)

    def test_uncached_indirect_returns_none(self, lfs):
        size = (NDADDR + 4) * BLOCK_SIZE
        lfs.write_path("/big", os.urandom(size))
        lfs.checkpoint()
        lfs.drop_caches(drop_inodes=False)
        ino = lfs.get_inode(lfs.lookup("/big"))
        # The single-indirect block is not in the buffer cache: the
        # cached probe must decline rather than fault it in.
        assert lfs.bmap_cached(ino, NDADDR + 1) is None
        # The real bmap still resolves (and reads the indirect block).
        assert lfs.bmap(ino, NDADDR + 1) != UNASSIGNED
        # Now the cached probe succeeds too.
        assert lfs.bmap_cached(ino, NDADDR + 1) == lfs.bmap(ino, NDADDR + 1)


class TestDiropFlag:
    def test_directory_partials_flagged(self, lfs, app):
        lfs.mkdir("/d")
        lfs.create("/d/f")
        lfs.sync()
        flagged = []
        for segno in range(2):
            for summary, _e, _d, _b in walk_segment(lfs, app, segno):
                flagged.append(bool(summary.flags & SS_DIROP))
        assert any(flagged)

    def test_pure_data_partials_unflagged(self, lfs, app):
        lfs.write_path("/plain", b"x" * BLOCK_SIZE)  # dirties "/" too
        lfs.sync()
        lfs.write(lfs.lookup("/plain"), 0, b"y" * BLOCK_SIZE)
        lfs.sync()  # this partial holds only file data + inode
        partials = []
        for segno in range(2):
            for summary, entries, _d, _b in walk_segment(lfs, app, segno):
                partials.append((summary, entries))
        last_summary = partials[-1][0]
        assert not last_summary.flags & SS_DIROP


class TestReadAheadRamp:
    def test_ramp_grows_with_sequentiality(self, lfs, app):
        lfs.write_path("/seq", os.urandom(64 * BLOCK_SIZE))
        lfs.checkpoint()
        lfs.drop_caches()
        inum = lfs.lookup("/seq")
        reads_sizes = []
        orig = lfs.dev_read_refs  # data blocks travel the refs path

        def spy(actor, daddr, nblocks):
            reads_sizes.append(nblocks)
            return orig(actor, daddr, nblocks)

        lfs.dev_read_refs = spy
        for lbn in range(32):
            lfs.read(inum, lbn * BLOCK_SIZE, BLOCK_SIZE)
        # Ramp: early reads small, later reads hit the 16-block cluster.
        assert max(reads_sizes) == CLUSTER_BLOCKS
        assert reads_sizes[0] < max(reads_sizes)

    def test_random_read_fetches_single_block(self, lfs):
        lfs.write_path("/rand", os.urandom(64 * BLOCK_SIZE))
        lfs.checkpoint()
        lfs.drop_caches()
        inum = lfs.lookup("/rand")
        sizes = []
        orig = lfs.dev_read_refs

        def spy(actor, daddr, nblocks):
            sizes.append(nblocks)
            return orig(actor, daddr, nblocks)

        lfs.dev_read_refs = spy
        lfs.read(inum, 40 * BLOCK_SIZE, BLOCK_SIZE)  # isolated jump
        lfs.read(inum, 20 * BLOCK_SIZE, BLOCK_SIZE)
        assert all(n <= 2 for n in sizes), sizes
