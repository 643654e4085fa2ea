"""Unit tests: on-media structure serialisation (superblock, summary,
inode, ifile, directory) including property-based round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChecksumError, CorruptFilesystem, InvalidArgument
from repro.lfs.constants import (BLOCK_SIZE, INODE_SIZE, INODES_PER_BLOCK,
                                 NDADDR, UNASSIGNED)
from repro.lfs.directory import Directory, pack_entries, unpack_entries
from repro.lfs.ifile import IFile, SEG_CACHED, SEG_CLEAN, SegUse
from repro.lfs.inode import (Inode, S_IFDIR, S_IFREG, find_inode_in_block,
                             pack_inode_block, unpack_inode_block)
from repro.lfs.summary import FileInfo, SegmentSummary
from repro.lfs.superblock import Checkpoint, Superblock


class TestSuperblock:
    def test_pack_size(self):
        assert len(Superblock().pack()) == BLOCK_SIZE

    def test_roundtrip(self):
        sb = Superblock(nsegs=123, ncachesegs=7)
        sb.store_checkpoint(Checkpoint(serial=3, ifile_daddr=99,
                                       log_daddr=500, timestamp=1.25))
        out = Superblock.unpack(sb.pack())
        assert out.nsegs == 123
        assert out.ncachesegs == 7
        ckpt = out.latest_checkpoint()
        assert (ckpt.serial, ckpt.ifile_daddr, ckpt.log_daddr) == (3, 99, 500)

    def test_bad_magic(self):
        with pytest.raises(CorruptFilesystem):
            Superblock.unpack(bytes(BLOCK_SIZE))

    def test_alternating_slots(self):
        sb = Superblock()
        sb.store_checkpoint(Checkpoint(serial=1))
        sb.store_checkpoint(Checkpoint(serial=2))
        sb.store_checkpoint(Checkpoint(serial=3))
        serials = sorted(c.serial for c in sb.checkpoints)
        assert serials == [2, 3]  # slot with serial 1 was overwritten

    def test_corrupt_slot_falls_back(self):
        sb = Superblock()
        sb.store_checkpoint(Checkpoint(serial=5, ifile_daddr=7))
        raw = bytearray(sb.pack())
        # Trash the newest slot's checksum region (slot 0 follows the
        # fixed header of 32 bytes).
        raw[40] ^= 0xFF
        recovered = Superblock.unpack(bytes(raw))
        assert recovered.latest_checkpoint().serial in (0, 5)

    def test_both_slots_corrupt(self):
        sb = Superblock()
        raw = bytearray(sb.pack())
        raw[40] ^= 0xFF
        raw[70] ^= 0xFF
        with pytest.raises(CorruptFilesystem):
            Superblock.unpack(bytes(raw))

    def test_seg_base_shift(self):
        sb = Superblock()
        assert sb.seg_base(0) == 16
        assert sb.seg_base(1) == 16 + sb.blocks_per_seg


class TestSegmentSummary:
    def _sample(self):
        return SegmentSummary(
            next_daddr=1234, create=2.5, flags=0,
            finfos=[FileInfo(ino=7, lastlength=100, blocks=[0, 1, -1]),
                    FileInfo(ino=9, lastlength=4096, blocks=[5])],
            inode_daddrs=[900, 901])

    def test_roundtrip(self):
        summary = self._sample()
        summary.datasum = 0xDEAD
        raw = summary.pack(4096)
        out = SegmentSummary.unpack(raw, 4096)
        assert out.next_daddr == 1234
        assert out.create == pytest.approx(2.5, abs=0.011)
        assert [fi.ino for fi in out.finfos] == [7, 9]
        assert out.finfos[0].blocks == [0, 1, -1]  # negative lbn survives
        assert out.finfos[0].lastlength == 100
        assert out.inode_daddrs == [900, 901]
        assert out.datasum == 0xDEAD

    def test_pack_sizes(self):
        summary = self._sample()
        assert len(summary.pack(512)) == 512
        assert len(summary.pack(4096)) == 4096

    def test_checksum_detects_corruption(self):
        raw = bytearray(self._sample().pack(512))
        raw[30] ^= 0x01
        with pytest.raises(ChecksumError):
            SegmentSummary.unpack(bytes(raw), 512)

    def test_blank_block_not_a_summary(self):
        assert SegmentSummary.try_unpack(bytes(4096), 4096) is None

    def test_datasum(self):
        summary = self._sample()
        blocks = [b"\x01" * 8, b"\x02" * 8]
        summary.compute_datasum(blocks)
        assert summary.verify_datasum(blocks)
        assert not summary.verify_datasum([b"\x03" * 8, b"\x02" * 8])

    def test_capacity_enforced(self):
        summary = SegmentSummary(
            finfos=[FileInfo(ino=1, lastlength=4096,
                             blocks=list(range(200)))])
        with pytest.raises(InvalidArgument):
            summary.pack(512)

    def test_fits(self):
        summary = SegmentSummary()
        assert summary.fits(512, extra_file=True, extra_blocks=100)
        assert not summary.fits(512, extra_file=True, extra_blocks=130)

    def test_table1_costs(self):
        base = SegmentSummary().bytes_needed()
        assert base == 24  # the 8 fixed header fields
        with_file = SegmentSummary(
            finfos=[FileInfo(1, 0, [])]).bytes_needed()
        assert with_file - base == 12
        with_block = SegmentSummary(
            finfos=[FileInfo(1, 0, [0])]).bytes_needed()
        assert with_block - with_file == 4
        with_ino = SegmentSummary(inode_daddrs=[1]).bytes_needed()
        assert with_ino - base == 4

    @given(st.lists(
        st.tuples(st.integers(1, 1 << 30),
                  st.lists(st.integers(-2000, 1 << 20), min_size=1,
                           max_size=10)),
        max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, files):
        summary = SegmentSummary(
            finfos=[FileInfo(ino, 4096, blocks) for ino, blocks in files])
        if summary.bytes_needed() > 4096:
            return
        out = SegmentSummary.unpack(summary.pack(4096), 4096)
        assert [(fi.ino, fi.blocks) for fi in out.finfos] == files

    @given(st.lists(
        st.tuples(st.integers(1, 4),      # few inos: continuations happen
                  st.lists(st.integers(-2000, 1 << 20), min_size=1,
                           max_size=6),
                  st.integers(1, 4096)),
        max_size=12), st.integers(0, 1 << 20))
    @settings(max_examples=60, deadline=None)
    def test_catalogue_one_writer_one_reader(self, batches, base):
        """``add_blocks`` → pack → unpack → ``entries``: same blocks, in
        order, at consecutive addresses; ``blocks_that_fit`` predicts
        the size; batch adds equal per-block adds."""
        size, room = 4096, 160    # ``room``: small enough to overflow
        batched, single = SegmentSummary(), SegmentSummary()
        for ino, lbns, lastlength in batches:
            fits = len(lbns) <= batched.blocks_that_fit(room, ino)
            batched.add_blocks(ino, lbns, lastlength)
            assert fits == (batched.bytes_needed() <= room)
            for lbn in lbns:
                single.add_blocks(ino, [lbn], lastlength)
        assert batched == single
        described = [(ino, lbn) for ino, lbns, _ in batches for lbn in lbns]
        out = SegmentSummary.unpack(batched.pack(size), size)
        assert out.finfos == batched.finfos
        assert [(fi.ino, lbn, daddr) for fi, lbn, daddr in out.entries(base)] \
            == [(ino, lbn, base + 1 + i)
                for i, (ino, lbn) in enumerate(described)]
        # One FINFO per run of same-file batches, closed by the last
        # batch's lastlength.
        runs = [b for i, b in enumerate(batches)
                if i + 1 == len(batches) or batches[i + 1][0] != b[0]]
        assert [(fi.ino, fi.lastlength) for fi in out.finfos] \
            == [(ino, lastlength) for ino, _, lastlength in runs]


class TestInode:
    def test_pack_size(self):
        assert len(Inode(5).pack()) == INODE_SIZE

    def test_roundtrip(self):
        ino = Inode(42, mode=S_IFREG | 0o640, nlink=2, uid=10, gid=20,
                    size=123456, atime=1.5, mtime=2.5, ctime=3.5, gen=7,
                    blocks=31)
        ino.db[0] = 777
        ino.ib[1] = 888
        out = Inode.unpack(ino.pack())
        assert out.inum == 42
        assert out.size == 123456
        assert out.db[0] == 777
        assert out.ib[1] == 888
        assert out.atime == 1.5
        assert not out.is_dir()

    def test_dir_mode(self):
        assert Inode(2, mode=S_IFDIR | 0o755).is_dir()

    def test_fresh_pointers_unassigned(self):
        ino = Inode(1)
        assert all(p == UNASSIGNED for p in ino.db)
        assert all(p == UNASSIGNED for p in ino.ib)
        assert len(ino.db) == NDADDR

    def test_inode_block_roundtrip(self):
        inodes = [Inode(i, size=i * 100) for i in range(1, 20)]
        block = pack_inode_block(inodes)
        assert len(block) == BLOCK_SIZE
        out = unpack_inode_block(block)
        assert [i.inum for i in out] == list(range(1, 20))

    def test_inode_block_capacity(self):
        with pytest.raises(InvalidArgument):
            pack_inode_block([Inode(i + 1)
                              for i in range(INODES_PER_BLOCK + 1)])

    def test_find_inode(self):
        block = pack_inode_block([Inode(5), Inode(9)])
        assert find_inode_in_block(block, 9).inum == 9
        with pytest.raises(CorruptFilesystem):
            find_inode_in_block(block, 6)

    @given(st.integers(1, 1 << 31), st.integers(0, 1 << 40),
           st.floats(0, 1e9, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, inum, size, atime):
        ino = Inode(inum, size=size, atime=atime)
        out = Inode.unpack(ino.pack())
        assert (out.inum, out.size, out.atime) == (inum, size, atime)


class TestIFile:
    def test_alloc_inum_sequence(self):
        ifile = IFile(4)
        first = ifile.alloc_inum()
        second = ifile.alloc_inum()
        assert second == first + 1

    def test_free_list_reuse(self):
        ifile = IFile(4)
        a = ifile.alloc_inum()
        b = ifile.alloc_inum()
        ifile.free_inum(a)
        assert ifile.alloc_inum() == a  # recycled
        assert ifile.alloc_inum() == b + 1

    def test_version_bumped_on_reuse(self):
        ifile = IFile(4)
        a = ifile.alloc_inum()
        v1 = ifile.imap_entry(a).version
        ifile.free_inum(a)
        ifile.alloc_inum()
        assert ifile.imap_entry(a).version == v1 + 1

    def test_clean_dirty_counts(self):
        ifile = IFile(8)
        assert ifile.clean_count() == 8
        ifile.seguse(0).flags = 0x02  # dirty
        assert ifile.clean_count() == 7
        assert ifile.dirty_count() == 1

    def test_cached_segments_not_allocatable(self):
        ifile = IFile(4)
        ifile.seguse(1).flags = SEG_CLEAN | SEG_CACHED
        assert 1 not in list(ifile.clean_segments())

    def test_grow(self):
        ifile = IFile(4)
        ifile.grow(3)
        assert ifile.nsegs == 7
        assert ifile.seguse(6).is_clean()

    def test_serialize_roundtrip(self):
        ifile = IFile(5)
        ifile.seguse(2).flags = 0x02
        ifile.seguse(2).live_bytes = 12345
        ifile.seguse(2).cache_tag = 99
        ifile.seguse(2).fetch_time = 3.25
        a = ifile.alloc_inum()
        ifile.imap_entry(a).daddr = 777
        b = ifile.alloc_inum()
        ifile.free_inum(b)
        out = IFile.deserialize(ifile.serialize())
        assert out.nsegs == 5
        assert out.seguse(2).live_bytes == 12345
        assert out.seguse(2).cache_tag == 99
        assert out.seguse(2).fetch_time == 3.25
        assert out.imap_entry(a).daddr == 777
        assert out.alloc_inum() == b  # free list survived

    def test_seguse_pack_size_stable(self):
        raw = SegUse().pack()
        assert SegUse.unpack(raw).is_clean()

    @given(st.lists(st.integers(0, 2_000_000), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_live_bytes_roundtrip(self, live):
        ifile = IFile(len(live))
        for segno, val in enumerate(live):
            ifile.seguse(segno).live_bytes = val
        out = IFile.deserialize(ifile.serialize())
        assert [s.live_bytes for s in out.segs] == live


class TestDirectory:
    def test_roundtrip(self):
        d = Directory.new(2, 2)
        d.add("hello.txt", 5)
        d.add("sub", 6)
        out = Directory.parse(d.pack())
        assert out.lookup("hello.txt") == 5
        assert out.names() == ["hello.txt", "sub"]

    def test_duplicate_rejected(self):
        d = Directory.new(2, 2)
        d.add("x", 3)
        with pytest.raises(Exception):
            d.add("x", 4)

    def test_remove(self):
        d = Directory.new(2, 2)
        d.add("x", 3)
        assert d.remove("x") == 3
        with pytest.raises(Exception):
            d.remove("x")

    def test_empty_check_ignores_dots(self):
        d = Directory.new(2, 2)
        assert d.is_empty()
        d.add("f", 3)
        assert not d.is_empty()

    def test_name_validation(self):
        d = Directory.new(2, 2)
        with pytest.raises(InvalidArgument):
            d.add("", 3)
        with pytest.raises(InvalidArgument):
            d.add("a/b", 3)
        with pytest.raises(InvalidArgument):
            d.add("n" * 300, 3)

    def test_unicode_names(self):
        d = Directory.new(2, 2)
        d.add("données.txt", 9)
        out = Directory.parse(d.pack())
        assert out.lookup("données.txt") == 9

    def test_padding_tolerated(self):
        raw = pack_entries({"a": 1}) + bytes(64)
        assert unpack_entries(raw) == {"a": 1}

    @given(st.dictionaries(
        st.text(alphabet=st.characters(blacklist_characters="/\0",
                                       max_codepoint=0x2FF),
                min_size=1, max_size=24),
        st.integers(1, 1 << 31), max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, entries):
        assert unpack_entries(pack_entries(entries)) == entries
