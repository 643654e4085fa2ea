"""Unit/integration tests: the FFS baseline and its allocator."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import profiles
from repro.errors import NoSpace
from repro.ffs.allocator import CylinderGroupAllocator
from repro.ffs.filesystem import FFS
from repro.lfs.constants import BLOCK_SIZE
from repro.sim.actor import Actor
from repro.util.units import MB


@pytest.fixture
def ffs(app):
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)
    return FFS.mkfs(disk, actor=app)


@pytest.fixture
def app():
    return Actor("app")


class TestAllocator:
    def _alloc(self, total=4096, first=64, maxbpg=256):
        return CylinderGroupAllocator(total, first, group_blocks=1024,
                                      cluster_blocks=16, maxbpg=maxbpg)

    def test_metadata_area_reserved(self):
        alloc = self._alloc()
        blk = alloc.alloc(inum=5)
        assert blk >= 64

    def test_sequential_allocation_contiguous(self):
        alloc = self._alloc()
        blocks = [alloc.alloc(inum=5) for _ in range(16)]
        assert blocks == list(range(blocks[0], blocks[0] + 16))

    def test_maxbpg_forces_group_change(self):
        alloc = self._alloc(maxbpg=32)
        blocks = [alloc.alloc(inum=5) for _ in range(64)]
        groups = {alloc.group_of(b) for b in blocks}
        assert len(groups) >= 2

    def test_different_files_different_groups(self):
        alloc = self._alloc()
        a = alloc.alloc(inum=1)
        b = alloc.alloc(inum=2)
        assert alloc.group_of(a) != alloc.group_of(b)

    def test_free_and_reuse(self):
        alloc = self._alloc()
        blk = alloc.alloc(inum=1)
        assert alloc.map.test(blk)
        alloc.free(1, blk)
        assert not alloc.map.test(blk)

    def test_exhaustion(self):
        alloc = CylinderGroupAllocator(128, 64, group_blocks=32,
                                       cluster_blocks=4)
        with pytest.raises(NoSpace):
            for _ in range(100):
                alloc.alloc(inum=1)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_no_double_allocation(self, inums):
        alloc = self._alloc()
        seen = set()
        for inum in inums:
            blk = alloc.alloc(inum)
            assert blk not in seen
            seen.add(blk)


class TestFFSBasics:
    def test_roundtrip(self, ffs):
        ffs.write_path("/f", b"ffs data")
        assert ffs.read_path("/f") == b"ffs data"

    def test_large_file(self, ffs):
        payload = os.urandom(2 * MB)
        ffs.write_path("/big", payload)
        assert ffs.read_path("/big") == payload

    def test_update_in_place(self, ffs):
        inum = ffs.create("/f")
        ffs.write(inum, 0, b"1" * BLOCK_SIZE)
        ffs.sync()
        ino = ffs.get_inode(inum)
        first = ffs.bmap(ino, 0)
        ffs.write(inum, 0, b"2" * BLOCK_SIZE)
        ffs.sync()
        assert ffs.bmap(ino, 0) == first  # the defining FFS behaviour

    def test_unlink_frees_blocks(self, ffs):
        ffs.write_path("/fat", os.urandom(MB))
        ffs.sync()
        alloc = ffs.allocator

        def free_blocks():
            return sum(not alloc.map.test(b)
                       for b in range(alloc.total_blocks))
        free_before = free_blocks()
        ffs.unlink("/fat")
        assert free_blocks() > free_before

    def test_rmdir_frees_the_directory_block(self, ffs):
        ffs.mkdir("/d")
        inum = ffs.lookup("/d")
        daddr = ffs.bmap(ffs.get_inode(inum), 0)
        assert ffs.allocator.map.test(daddr)
        ffs.rmdir("/d")
        assert not ffs.allocator.map.test(daddr)
        assert inum not in ffs._block_map

    def test_inode_persistence_across_cache_drop(self, ffs):
        ffs.write_path("/persist", b"keep me")
        ffs.sync()
        ffs.drop_caches(drop_inodes=True)
        assert ffs.read_path("/persist") == b"keep me"

    def test_inode_rmw_preserves_neighbours(self, ffs):
        """Flushing one dirty inode must not clobber its block-mates."""
        for i in range(8):
            ffs.write_path(f"/n{i}", bytes([i]) * 10)
        ffs.sync()
        ffs.drop_caches(drop_inodes=True)
        ffs.read_path("/n3")          # load + atime-dirty just one
        ffs.sync()
        ffs.drop_caches(drop_inodes=True)
        for i in range(8):
            assert ffs.read_path(f"/n{i}") == bytes([i]) * 10

    def test_holes(self, ffs):
        inum = ffs.create("/sparse")
        ffs.write(inum, 5 * BLOCK_SIZE, b"tail")
        assert ffs.read(inum, 0, 4) == b"\0\0\0\0"


class TestFFSPerformanceShape:
    def test_sequential_write_beats_lfs(self, app):
        """FFS avoids the staging copy: sequential writes are faster."""
        from repro.lfs.filesystem import LFS
        cpu = profiles.make_cpu()
        ffs_disk = profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)
        lfs_disk = profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)
        a1, a2 = Actor("a1"), Actor("a2")
        ffs = FFS.mkfs(ffs_disk, profiles.make_cpu(), actor=a1)
        lfs = LFS.mkfs(lfs_disk, None, profiles.make_cpu(), actor=a2)
        payload = os.urandom(4 * MB)
        t0 = a1.time
        ffs.write_path("/seq", payload)
        ffs.sync()
        ffs_time = a1.time - t0
        t0 = a2.time
        lfs.write_path("/seq", payload)
        lfs.sync()
        lfs_time = a2.time - t0
        assert ffs_time < lfs_time

    def test_elevator_flush_is_sorted(self, ffs, app):
        """Dirty buffers flush in ascending disk order (one sweep)."""
        inum = ffs.create("/r")
        ffs.write(inum, 0, os.urandom(MB))
        ffs.sync()
        order = []
        orig = ffs.device.write

        def spy(actor, blkno, data):
            order.append(blkno)
            return orig(actor, blkno, data)

        ffs.device.write = spy
        import random
        rng = random.Random(1)
        for _ in range(30):
            ffs.write(inum, rng.randrange(250) * BLOCK_SIZE, b"u" * 100)
        ffs._write_behind(app)
        data_writes = [b for b in order]
        assert data_writes == sorted(data_writes)
