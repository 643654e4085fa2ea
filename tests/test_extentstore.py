"""Unit + property tests: the extent-run data store.

The ExtentStore must be observationally identical to the simple
per-block dict (``tests/blockstore_model.py``) under every mixture of
aligned writes, vectored writes, reads, discards, and occupancy queries
— including the ``written_in_range`` occupancy count.
The property test drives both the store and a reference dict model with
one seeded RNG and compares after every operation.
"""

import random

import pytest

from repro.blockdev import datapath
from repro.blockdev.datapath import (
    ExtentRef,
    block_views,
    materialize_refs,
    ref_of,
)
from repro.blockdev.extent import ExtentStore
from repro.errors import AddressError, InvalidArgument
from tests.blockstore_model import BlockStore

BS = 512  # small block size keeps the property test fast
CAP = 128


def blk(seed: int, nblocks: int = 1) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(BS * nblocks))


def fresh() -> ExtentStore:
    return ExtentStore(CAP, BS)


class TestExtentStoreBasics:
    def test_unwritten_reads_zero(self):
        st = fresh()
        assert st.read(0, 4) == bytes(4 * BS)
        assert not st.is_written(0)
        assert st.written_in_range(0, CAP) == 0

    def test_hole_read_copy_count_ignores_zero_buffer_history(self,
                                                               monkeypatch):
        # The shared zero buffer only grows, so its length depends on
        # what ran before in the process; a whole-hole read must count
        # the same copies whether or not something grew it first.
        st = fresh()
        copied = []
        for grow in (0, 1 << 20):
            monkeypatch.setattr(datapath, "_zero_buf", bytes(0))
            datapath.zeros(grow)
            before = datapath.bytes_copied_total()
            assert st.read(0, 4) == bytes(4 * BS)
            copied.append(datapath.bytes_copied_total() - before)
        assert copied[0] == copied[1]

    def test_write_read_roundtrip(self):
        st = fresh()
        data = blk(1, 3)
        st.write(5, data)
        assert st.read(5, 3) == data
        assert st.read(4, 5) == bytes(BS) + data + bytes(BS)
        assert st.written_in_range(0, CAP) == 3

    def test_exact_extent_read_is_zero_copy(self):
        # Reading back exactly one adopted bytes extent returns the very
        # same object — the aligned fast path copies nothing.
        st = fresh()
        data = blk(2, 4)
        st.write(8, data)
        assert st.read(8, 4) is data

    def test_overwrite_splits_extent(self):
        st = fresh()
        st.write(0, blk(3, 8))
        mid = blk(4, 2)
        st.write(3, mid)
        assert st.read(3, 2) == mid
        assert st.read(0, 8) == blk(3, 8)[:3 * BS] + mid + blk(3, 8)[5 * BS:]
        assert st.written_in_range(0, CAP) == 8

    def test_no_coalesce_across_holes(self):
        st = fresh()
        st.write(0, blk(7))
        st.write(2, blk(8))
        image = st.read(0, 3)
        assert image == blk(7) + bytes(BS) + blk(8)
        assert not st.is_written(1)  # the hole must survive the read

    def test_discard(self):
        st = fresh()
        st.write(0, blk(9, 6))
        st.discard(2, 2)
        assert st.read(0, 6) == (blk(9, 6)[:2 * BS] + bytes(2 * BS)
                                 + blk(9, 6)[4 * BS:])
        assert st.written_in_range(0, 6) == 4
        assert st.written_in_range(0, CAP) == 4

    def test_out_of_range_rejected(self):
        st = fresh()
        with pytest.raises(AddressError):
            st.read(CAP - 1, 2)
        with pytest.raises(AddressError):
            st.write(CAP, blk(0))

    def test_unaligned_write_rejected(self):
        st = fresh()
        with pytest.raises(InvalidArgument):
            st.write(0, b"x" * (BS + 1))


class TestVectoredPath:
    def test_write_refs_adopts_without_copy(self):
        st = fresh()
        seg = blk(10, 4)
        st.write_refs(0, [ExtentRef(seg, 0, len(seg))])
        assert st.read(0, 4) is seg

    def test_contiguous_refs_merge_into_one_extent(self):
        # Refs over adjacent regions of the same buffer free-merge: the
        # later whole-range read is the single-extent fast path.
        st = fresh()
        seg = blk(11, 8)
        st.write_refs(0, [ExtentRef(seg, 0, 4 * BS),
                          ExtentRef(seg, 4 * BS, 4 * BS)])
        assert st.read(0, 8) == seg
        assert st.written_in_range(0, CAP) == 8

    def test_read_refs_zero_fill_holes(self):
        st = fresh()
        st.write(1, blk(12))
        refs = st.read_refs(0, 3)
        assert materialize_refs(refs) == bytes(BS) + blk(12) + bytes(BS)

    def test_read_refs_borrow_not_copy(self):
        st = fresh()
        data = blk(13, 2)
        st.write(4, data)
        (ref,) = st.read_refs(4, 2)
        assert ref.buf is data and ref.start == 0 and ref.nbytes == 2 * BS

    def test_writev_matches_scalar_writes(self):
        st, ref_st = fresh(), fresh()
        parts = [blk(14, 2), blk(15), blk(16, 3)]
        st.writev(2, parts)
        ref_st.write(2, b"".join(parts))
        assert st.read(0, CAP // 2) == ref_st.read(0, CAP // 2)

    def test_ref_of_roundtrip(self):
        data = blk(18)
        ref = ref_of(data)
        assert bytes(ref.view()) == data


class TestBlockViews:
    def test_whole_bytes_block_passes_through(self):
        data = blk(20)
        (out,) = block_views([ref_of(data)], BS)
        assert out is data  # the adopted-block fast path

    def test_block_ref_into_larger_buffer_is_truncated(self):
        # Regression: a one-block ref at offset 0 of a multi-block bytes
        # buffer must yield exactly one block, not the whole buffer.
        big = blk(21, 10)
        (out,) = block_views([ExtentRef(big, 0, BS)], BS)
        assert len(out) == BS
        assert bytes(out) == big[:BS]

    def test_block_ref_into_larger_buffer_via_store(self):
        # End-to-end shape of the migrator bug: a single-block read_refs
        # over a larger coalesced extent.
        st = fresh()
        seg = blk(22, 10)
        st.write(0, seg)
        refs = st.read_refs(0, 1)
        views = block_views(refs, BS)
        assert [len(v) for v in views] == [BS]
        assert bytes(views[0]) == seg[:BS]

    def test_multiblock_ref_splits(self):
        data = blk(23, 3)
        views = block_views([ref_of(data)], BS)
        assert [len(v) for v in views] == [BS, BS, BS]
        assert b"".join(bytes(v) for v in views) == data

    def test_straddling_refs_joined(self):
        data = blk(24, 2)
        views = block_views([ExtentRef(data, 0, BS // 2),
                             ExtentRef(data, BS // 2, 2 * BS - BS // 2)],
                            BS)
        assert [len(v) for v in views] == [BS, BS]
        assert b"".join(bytes(v) for v in views) == data

    def test_unaligned_total_rejected(self):
        with pytest.raises(ValueError):
            block_views([ref_of(blk(25) + b"x")], BS)


class TestRunCounts:
    """Bounds on the run representation: batched adoption must land in
    O(runs) rows, never one row per block."""

    def test_contiguous_same_buffer_refs_adopt_as_one_run(self):
        st = fresh()
        seg = blk(30, 16)
        refs = [ExtentRef(seg, i * BS, BS) for i in range(16)]
        st.write_refs(0, refs)
        assert st.run_count() == 1  # adopt-time coalescing

    def test_chunked_same_buffer_refs_adopt_as_one_run(self):
        st = fresh()
        seg = blk(31, 16)
        st.write_refs(0, [ExtentRef(seg, off, 4 * BS)
                          for off in range(0, 16 * BS, 4 * BS)])
        assert st.run_count() == 1

    def test_segment_in_16_block_chunks_adopts_as_one_run(self):
        # Real geometry: a 1 MB segment of 4 KB blocks arriving the way
        # the segment writer hands it over, as 16-block parts of one
        # buffer, settles into a single row at adopt time.
        bs, bps, chunk = 4096, 256, 16 * 4096
        st = ExtentStore(4 * bps, bs)
        image = bytes(range(256)) * (bps * bs // 256)
        st.write_refs(0, [ExtentRef(image, off, chunk)
                          for off in range(0, len(image), chunk)])
        assert st.run_count() == 1
        assert st.read(0, bps) is image

    def test_distinct_buffers_bounded_by_ref_count(self):
        st = fresh()
        parts = [blk(32 + i) for i in range(8)]
        st.write_refs(0, [ExtentRef(p, 0, BS) for p in parts])
        assert st.run_count() == 8  # distinct buffers cannot merge

    def test_writev_splices_parts_without_row_blowup(self):
        st = fresh()
        parts = [blk(40 + i) for i in range(12)]
        st.writev(4, parts)
        assert st.run_count() <= len(parts)

    def test_adjacent_adopt_merges_with_neighbor_rows(self):
        # Two write_refs calls over adjacent ranges of one buffer must
        # splice-merge into the existing row, not stack a second one.
        st = fresh()
        seg = blk(50, 8)
        st.write_refs(0, [ExtentRef(seg, 0, 4 * BS)])
        st.write_refs(4, [ExtentRef(seg, 4 * BS, 4 * BS)])
        assert st.run_count() == 1

    def test_random_contiguous_writes_keep_runs_bounded(self):
        # Each write lands as one row but may split an overlapped run
        # into two remainders: rows grow by at most 2 per write, and a
        # row always covers at least one block.
        rng = random.Random(0xC0FFEE)
        st = fresh()
        writes = 0
        for _ in range(200):
            blkno = rng.randrange(CAP - 8)
            nblocks = rng.randrange(1, 9)
            st.write(blkno, blk(rng.getrandbits(30), nblocks))
            writes += 1
            assert st.run_count() <= min(2 * writes, st.written_in_range(0, CAP))


class TestGuardedRunBorrows:
    """Sanitizer-armed: poisoning follows the run representation."""

    def test_overwriting_one_run_poisons_only_its_borrows(self, armed):
        from repro.analysis.sanitize import BorrowViolation, GuardedRef
        st = fresh()
        st.write(0, blk(60, 2))
        st.write(4, blk(61, 2))  # separate run (hole at 2..3)
        left = st.read_refs(0, 2)
        right = st.read_refs(4, 2)
        assert all(isinstance(r, GuardedRef) for r in left + right)
        st.write(0, blk(62, 2))  # recycle only the left run
        with pytest.raises(BorrowViolation):
            left[0].view()
        # The untouched run's borrow stays live at run granularity.
        assert bytes(right[0].view()) == blk(61, 2)

    def test_coalesced_run_borrow_poisons_whole_range(self, armed):
        from repro.analysis.sanitize import BorrowViolation
        st = fresh()
        seg = blk(63, 4)
        # Four chunked refs over one buffer merge into one run at adopt.
        st.write_refs(0, [ExtentRef(seg, i * BS, BS) for i in range(4)])
        assert st.run_count() == 1
        (ref,) = st.read_refs(0, 4)  # one borrow over the merged run
        st.write(1, blk(70))         # overwrite inside the run
        with pytest.raises(BorrowViolation):
            ref.view()
        assert armed.poisons >= 1

    def test_adopted_refs_are_poisoned_for_the_giver(self, armed):
        from repro.analysis.sanitize import BorrowViolation
        src, dst = fresh(), fresh()
        seg = blk(71, 4)
        src.write(0, seg)
        lent = src.read_refs(0, 4)   # guarded borrows of one run
        dst.write_refs(8, lent)
        # Handing refs over transfers ownership: the giver's handles
        # are dead even though adopt-time coalescing rebuilt the rows,
        # and the adoptee holds the payload as a single fresh run.
        for r in lent:
            with pytest.raises(BorrowViolation):
                r.view()
        assert dst.run_count() == 1
        assert dst.read(8, 4) == seg


class DictModel:
    """Reference model: one bytes object per written block."""

    def __init__(self):
        self.blocks = {}

    def write(self, blkno, data):
        for i in range(len(data) // BS):
            self.blocks[blkno + i] = bytes(data[i * BS:(i + 1) * BS])

    def read(self, blkno, nblocks):
        return b"".join(self.blocks.get(blkno + i, bytes(BS))
                        for i in range(nblocks))

    def discard(self, blkno, nblocks):
        for i in range(nblocks):
            self.blocks.pop(blkno + i, None)

    def is_written(self, blkno):
        return blkno in self.blocks

    def written_in_range(self, blkno, nblocks):
        return sum(1 for i in range(nblocks) if blkno + i in self.blocks)

    def written_blocks(self):
        return len(self.blocks)


@pytest.mark.parametrize("seed", [0xE57E47, 0xBEEF01, 0x5E601])
@pytest.mark.parametrize("store_cls", [ExtentStore, BlockStore])
def test_store_equivalent_to_dict_model(store_cls, seed):
    """Random op sequences: the store and the dict model never diverge."""
    rng = random.Random(seed)
    st = store_cls(CAP, BS)
    model = DictModel()
    for step in range(1500):
        op = rng.randrange(7)
        blkno = rng.randrange(CAP)
        nblocks = rng.randrange(1, min(9, CAP - blkno + 1))
        if op == 0:
            data = blk(rng.getrandbits(30), nblocks)
            st.write(blkno, data)
            model.write(blkno, data)
        elif op == 1:
            data = blk(rng.getrandbits(30), nblocks)
            st.write_refs(blkno, [ExtentRef(data, 0, len(data))])
            model.write(blkno, data)
        elif op == 2:
            split = rng.randrange(nblocks * BS + 1)
            data = blk(rng.getrandbits(30), nblocks)
            refs = [r for r in (ExtentRef(data, 0, split),
                                ExtentRef(data, split, len(data) - split))
                    if r.nbytes]
            st.write_refs(blkno, refs)
            model.write(blkno, data)
        elif op == 3:
            assert st.read(blkno, nblocks) == model.read(blkno, nblocks), \
                f"read diverged at step {step}"
        elif op == 4:
            st.discard(blkno, nblocks)
            model.discard(blkno, nblocks)
        elif op == 5:
            got = materialize_refs(st.read_refs(blkno, nblocks))
            assert got == model.read(blkno, nblocks), \
                f"read_refs diverged at step {step}"
        else:
            assert st.is_written(blkno) == model.is_written(blkno)
            assert (st.written_in_range(blkno, nblocks)
                    == model.written_in_range(blkno, nblocks))
        assert st.written_in_range(0, CAP) == model.written_blocks(), \
            f"occupancy diverged at step {step}"
    # Final sweep: every block position agrees.
    assert st.read(0, CAP) == model.read(0, CAP)
