"""Edge-case tests: boundary conditions across the stack."""

import os

import pytest

from repro.blockdev import profiles
from repro.blockdev.striped import ConcatDevice
from repro.errors import InvalidArgument
from repro.lfs.constants import (BLOCK_SIZE, MAX_LBN, NDADDR,
                                 PTRS_PER_BLOCK, UNASSIGNED)
from repro.lfs.filesystem import LFS
from repro.sim.actor import Actor
from repro.util.units import KB, MB


class TestPointerBoundaries:
    """Writes straddling every level of the block-pointer tree."""

    def _roundtrip_at(self, lfs, lbn):
        marker = os.urandom(BLOCK_SIZE)
        inum = lfs.create(f"/at{lbn}")
        lfs.write(inum, lbn * BLOCK_SIZE, marker)
        lfs.sync()
        assert lfs.read(inum, lbn * BLOCK_SIZE, BLOCK_SIZE) == marker
        return inum

    def test_last_direct_block(self, lfs):
        self._roundtrip_at(lfs, NDADDR - 1)

    def test_first_single_indirect(self, lfs):
        inum = self._roundtrip_at(lfs, NDADDR)
        ino = lfs.get_inode(inum)
        assert ino.ib[0] != UNASSIGNED
        assert ino.ib[1] == UNASSIGNED

    def test_last_single_indirect(self, lfs):
        self._roundtrip_at(lfs, NDADDR + PTRS_PER_BLOCK - 1)

    def test_first_double_indirect(self, lfs):
        inum = self._roundtrip_at(lfs, NDADDR + PTRS_PER_BLOCK)
        ino = lfs.get_inode(inum)
        assert ino.ib[1] != UNASSIGNED

    def test_second_double_child(self, lfs):
        self._roundtrip_at(lfs, NDADDR + 2 * PTRS_PER_BLOCK + 5)

    def test_beyond_max_lbn_rejected(self, lfs):
        inum = lfs.create("/huge")
        with pytest.raises(InvalidArgument):
            lfs.write(inum, (MAX_LBN + 1) * BLOCK_SIZE, b"x")

    def test_boundary_survives_remount(self, lfs, small_disk):
        marker = os.urandom(BLOCK_SIZE)
        inum = lfs.create("/edge")
        lfs.write(inum, NDADDR * BLOCK_SIZE, marker)
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        assert fs2.read(fs2.lookup("/edge"), NDADDR * BLOCK_SIZE,
                        BLOCK_SIZE) == marker


class TestZeroAndTiny:
    def test_zero_byte_file(self, lfs):
        inum = lfs.create("/empty")
        lfs.checkpoint()
        assert lfs.read(inum, 0, 100) == b""
        assert lfs.stat("/empty").size == 0

    def test_one_byte_file(self, lfs):
        lfs.write_path("/one", b"!")
        lfs.checkpoint()
        assert lfs.read_path("/one") == b"!"

    def test_empty_file_survives_remount(self, lfs, small_disk):
        lfs.create("/empty")
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        assert fs2.stat("/empty").size == 0

    def test_zero_byte_migration_is_noop(self, hl):
        hl.fs.create("/empty")
        hl.fs.checkpoint()
        hl.fs.write_path("/first", os.urandom(3 * BLOCK_SIZE))
        hl.fs.checkpoint()
        # "Returns blocks moved" means by this call, not since creation.
        assert hl.migrator.migrate_file("/first") == 3
        moved = hl.migrator.migrate_file("/empty")
        hl.migrator.flush()
        assert moved == 0
        assert hl.fs.stat("/empty").size == 0


class TestTruncateExtendCycles:
    def test_shrink_then_regrow(self, lfs):
        first = os.urandom(8 * BLOCK_SIZE)
        lfs.write_path("/cycle", first)
        lfs.truncate("/cycle", 2 * BLOCK_SIZE)
        second = os.urandom(4 * BLOCK_SIZE)
        lfs.write_path("/cycle", second, offset=2 * BLOCK_SIZE)
        lfs.sync()
        got = lfs.read_path("/cycle")
        assert got[:2 * BLOCK_SIZE] == first[:2 * BLOCK_SIZE]
        assert got[2 * BLOCK_SIZE:] == second

    def test_truncate_to_zero_and_reuse(self, lfs):
        lfs.write_path("/z", b"old" * 1000)
        lfs.truncate("/z", 0)
        lfs.write_path("/z", b"new")
        lfs.sync()
        assert lfs.read_path("/z") == b"new"

    def test_truncate_through_indirect_boundary(self, lfs):
        lfs.write_path("/t", os.urandom((NDADDR + 20) * BLOCK_SIZE))
        lfs.sync()
        lfs.truncate("/t", 4 * BLOCK_SIZE)
        lfs.sync()
        assert lfs.stat("/t").size == 4 * BLOCK_SIZE
        assert len(lfs.read_path("/t")) == 4 * BLOCK_SIZE


class TestThreeDiskConcat:
    def test_three_spindles(self):
        disks = [profiles.make_disk(profiles.RZ57, name=f"d{i}",
                                    capacity_bytes=16 * MB)
                 for i in range(3)]
        concat = ConcatDevice("farm3", disks)
        actor = Actor("a")
        boundary = disks[0].capacity_blocks + disks[1].capacity_blocks
        image = os.urandom(3 * BLOCK_SIZE)
        concat.write(actor, boundary - 1, image)
        assert concat.read(actor, boundary - 1, 3) == image
        assert disks[1].store.is_written(disks[1].capacity_blocks - 1)
        assert disks[2].store.is_written(0)

    def test_lfs_spans_three_disks(self):
        disks = [profiles.make_disk(profiles.RZ57, name=f"d{i}",
                                    capacity_bytes=16 * MB)
                 for i in range(3)]
        concat = ConcatDevice("farm3", disks)
        fs = LFS.mkfs(concat, actor=Actor("app"))
        payload = os.urandom(34 * MB)  # enough log to reach spindle 3
        fs.write_path("/span", payload)
        fs.checkpoint()
        assert fs.read_path("/span") == payload
        assert all(d.store.written_in_range(0, d.capacity_blocks) > 0
                   for d in disks)


class TestManyFilesManySegments:
    def test_hundreds_of_small_files(self, lfs):
        for i in range(300):
            lfs.write_path(f"/n{i:03d}", bytes([i % 256]) * 100)
        lfs.checkpoint()
        for i in range(0, 300, 37):
            assert lfs.read_path(f"/n{i:03d}") == bytes([i % 256]) * 100

    def test_many_files_survive_remount(self, lfs, small_disk):
        for i in range(150):
            lfs.write_path(f"/m{i:03d}", bytes([i % 256]) * 64)
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        assert len(fs2.readdir("/")) == 150
        assert fs2.read_path("/m101") == bytes([101]) * 64

    def test_migrate_many_small_files_one_segment(self, hl):
        """Dozens of small files pack into few staging segments."""
        paths = {}
        for i in range(40):
            path = f"/tiny{i:02d}"
            paths[path] = os.urandom(6 * KB)
            hl.fs.write_path(path, paths[path])
        hl.fs.checkpoint()
        for path in paths:
            hl.migrator.migrate_file(path)
        hl.migrator.flush()
        assert hl.migrator.stats.segments_staged <= 2
        hl.fs.service.flush_cache(hl.app)
        hl.fs.drop_caches(drop_inodes=True)
        for path, payload in paths.items():
            assert hl.fs.read_path(path) == payload
