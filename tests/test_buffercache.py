"""Unit tests: the block buffer cache."""

import pytest

from repro.errors import InvalidArgument
from repro.lfs.buffercache import BufferCache
from repro.lfs.constants import BLOCK_SIZE


def block(seed: int) -> bytes:
    return bytes([seed & 0xFF]) * BLOCK_SIZE


class TestBufferCache:
    def test_put_get(self):
        bc = BufferCache()
        bc.put((1, 0), block(7), dirty=False)
        assert bc.get((1, 0)) == block(7)

    def test_miss_returns_none(self):
        bc = BufferCache()
        assert bc.get((1, 0)) is None
        assert bc.misses == 1

    def test_hit_accounting(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=False)
        bc.get((1, 0))
        assert bc.hits == 1

    def test_peek_no_accounting(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=False)
        bc.peek((1, 0))
        bc.peek((2, 0))
        assert bc.hits == 0 and bc.misses == 0

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidArgument):
            BufferCache().put((1, 0), b"tiny", dirty=False)

    def test_overwrite_keeps_dirty(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=True)
        bc.put((1, 0), block(2), dirty=False)
        assert bc.is_dirty((1, 0))
        assert bc.peek((1, 0)) == block(2)

    def test_mark_clean(self):
        bc = BufferCache()
        bc.put((1, 0), block(1), dirty=True)
        bc.mark_clean((1, 0))
        assert not bc.is_dirty((1, 0))

    def test_capacity_evicts_clean_lru(self):
        bc = BufferCache(capacity_bytes=8 * BLOCK_SIZE)
        for i in range(8):
            bc.put((1, i), block(i), dirty=False)
        bc.get((1, 0))  # protect block 0
        bc.put((1, 8), block(8), dirty=False)
        assert bc.peek((1, 1)) is None  # LRU victim
        assert bc.peek((1, 0)) is not None

    def test_dirty_blocks_never_evicted(self):
        bc = BufferCache(capacity_bytes=8 * BLOCK_SIZE)
        for i in range(8):
            bc.put((1, i), block(i), dirty=True)
        bc.put((1, 8), block(8), dirty=False)
        for i in range(8):
            assert bc.peek((1, i)) is not None

    def test_dirty_listing_and_per_inode(self):
        bc = BufferCache()
        bc.put((1, 0), block(0), dirty=True)
        bc.put((2, 0), block(1), dirty=True)
        bc.put((2, 1), block(2), dirty=False)
        assert bc.dirty_count() == 2
        assert {b.key for b in bc.dirty_buffers()} == {(1, 0), (2, 0)}
        assert [b.key for b in bc.dirty_for_inode(2)] == [(2, 0)]

    def test_invalidate_inode(self):
        bc = BufferCache()
        bc.put((5, 0), block(0), dirty=True)
        bc.put((5, 1), block(1), dirty=False)
        bc.put((6, 0), block(2), dirty=False)
        bc.invalidate_inode(5)
        assert bc.peek((5, 0)) is None
        assert bc.peek((6, 0)) is not None

    def test_drop_clean(self):
        bc = BufferCache()
        bc.put((1, 0), block(0), dirty=True)
        bc.put((1, 1), block(1), dirty=False)
        assert bc.drop_clean() == 1
        assert bc.peek((1, 0)) is not None
        assert bc.peek((1, 1)) is None

    def test_dirty_count_matches_scan(self):
        """The incremental counter must track a full scan exactly."""
        import random
        rng = random.Random(0xD187)
        bc = BufferCache(capacity_bytes=16 * BLOCK_SIZE)
        for step in range(2000):
            op = rng.randrange(5)
            key = (rng.randrange(3), rng.randrange(8))
            if op == 0:
                bc.put(key, block(step), dirty=True)
            elif op == 1:
                bc.put(key, block(step), dirty=False)
            elif op == 2:
                bc.mark_clean(key)
            elif op == 3:
                bc.invalidate(key)
            else:
                bc.invalidate_inode(key[0])
            scan = sum(1 for b in bc._bufs.values() if b.dirty)
            assert bc.dirty_count() == scan, f"diverged at step {step}"

    def test_needs_flush(self):
        bc = BufferCache(capacity_bytes=10 * BLOCK_SIZE)
        assert not bc.needs_flush()
        for i in range(4):
            bc.put((1, i), block(i), dirty=True)
        assert not bc.needs_flush()
        bc.put((1, 4), block(4), dirty=True)
        assert bc.needs_flush()
