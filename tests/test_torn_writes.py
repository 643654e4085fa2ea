"""Crash-point tests: torn device writes and recovery behaviour.

The atomicity unit of an LFS is the partial segment: its summary checksum
plus the data checksum let recovery detect a write that only partially
reached the medium.  These tests simulate power loss mid-write by
truncating or corrupting the tail of the last device write, then verify
that mount recovers exactly the state as of the last complete partial
segment — never garbage.
"""

import os

import pytest

from repro.blockdev import profiles
from repro.lfs.check import check_filesystem
from repro.lfs.constants import BLOCK_SIZE
from repro.lfs.filesystem import LFS
from repro.sim.actor import Actor
from repro.util.units import MB


class TornWriteDisk:
    """Wraps a disk; can tear the tail off the most recent write."""

    def __init__(self, disk):
        self.disk = disk
        self._last_write = None  # (blkno, nblocks)

    def __getattr__(self, name):
        return getattr(self.disk, name)

    def read(self, actor, blkno, nblocks):
        return self.disk.read(actor, blkno, nblocks)

    def write(self, actor, blkno, data):
        self.disk.write(actor, blkno, data)
        self._last_write = (blkno, len(data) // BLOCK_SIZE)

    def writev(self, actor, blkno, parts):
        self.disk.writev(actor, blkno, parts)
        nblocks = sum(len(p) for p in parts) // BLOCK_SIZE
        self._last_write = (blkno, nblocks)

    def tear_last_write(self, keep_blocks: int) -> None:
        """Pretend only the first ``keep_blocks`` blocks hit the medium."""
        if self._last_write is None:
            raise RuntimeError("nothing written yet")
        blkno, nblocks = self._last_write
        for i in range(keep_blocks, nblocks):
            self.disk.store.write(blkno + i, os.urandom(BLOCK_SIZE))


def fresh():
    raw = profiles.make_disk(profiles.RZ57, capacity_bytes=48 * MB)
    disk = TornWriteDisk(raw)
    fs = LFS.mkfs(disk, actor=Actor("app"))
    return fs, disk, raw


class TestTornPartialSegments:
    def test_torn_summary_discards_partial(self):
        fs, disk, raw = fresh()
        fs.write_path("/safe", b"safe data")
        fs.checkpoint()
        fs.write_path("/torn", b"T" * (8 * BLOCK_SIZE))
        fs.sync()
        disk.tear_last_write(keep_blocks=0)  # not even the summary landed
        fs2 = LFS.mount(raw)
        assert fs2.read_path("/safe") == b"safe data"
        with pytest.raises(Exception):
            fs2.read_path("/torn")
        assert check_filesystem(fs2).ok

    def test_torn_payload_detected_by_datasum(self):
        fs, disk, raw = fresh()
        fs.write_path("/safe", b"safe data")
        fs.checkpoint()
        fs.write_path("/torn", b"T" * (8 * BLOCK_SIZE))
        fs.sync()
        disk.tear_last_write(keep_blocks=3)  # summary + some data only
        fs2 = LFS.mount(raw)
        assert fs2.read_path("/safe") == b"safe data"
        with pytest.raises(Exception):
            fs2.read_path("/torn")

    def test_complete_partials_before_tear_survive(self):
        fs, disk, raw = fresh()
        fs.checkpoint()
        fs.write_path("/first", b"1" * (4 * BLOCK_SIZE))
        fs.sync()     # complete partial
        fs.write_path("/second", b"2" * (4 * BLOCK_SIZE))
        fs.sync()     # this one tears
        disk.tear_last_write(keep_blocks=1)
        fs2 = LFS.mount(raw)
        assert fs2.read_path("/first") == b"1" * (4 * BLOCK_SIZE)
        with pytest.raises(Exception):
            fs2.read_path("/second")

    def test_torn_checkpoint_falls_back_to_older_slot(self):
        fs, disk, raw = fresh()
        fs.write_path("/base", b"base")
        fs.checkpoint()                     # good checkpoint (slot A)
        serial_good = fs.sb.latest_checkpoint().serial
        fs.write_path("/later", b"later")
        fs.checkpoint()                     # newest checkpoint -> slot 0
        # ...whose superblock write tears: corrupt only the newest slot
        # (slot 0 occupies bytes [32, 60) after the fixed header).
        raw_block = bytearray(raw.store.read(0, 1))
        raw_block[40] ^= 0xFF
        raw_block[50] ^= 0xFF
        raw.store.write(0, bytes(raw_block))
        fs2 = LFS.mount(raw)
        # Whichever slot survived, the filesystem mounts and /base (from
        # before the older checkpoint) is intact; /later may be recovered
        # by roll-forward from the older checkpoint.
        assert fs2.read_path("/base") == b"base"
        assert check_filesystem(fs2).ok

    def test_repeated_crash_recovery_stable(self):
        fs, disk, raw = fresh()
        payloads = {}
        for round_no in range(3):
            path = f"/r{round_no}"
            payloads[path] = os.urandom(6 * BLOCK_SIZE)
            fs.write_path(path, payloads[path])
            fs.sync()                             # this round completes
            fs.write_path(f"/junk{round_no}", b"J" * (4 * BLOCK_SIZE))
            fs.sync()
            disk.tear_last_write(keep_blocks=0)   # the junk tears away
            fs = LFS.mount(raw)
            fs.device = disk  # keep tearing capability on the remount
            # Every completed round's file survives; the junk does not.
            for old_path, old_payload in payloads.items():
                assert fs.read_path(old_path) == old_payload
            with pytest.raises(Exception):
                fs.read_path(f"/junk{round_no}")
        assert check_filesystem(fs).ok


class TestTornWritesUnderLoad:
    def test_tear_during_multi_partial_flush(self):
        fs, disk, raw = fresh()
        fs.checkpoint()
        # A flush large enough to span several partial segments.
        fs.write_path("/bulk", os.urandom(3 * MB))
        fs.sync()
        disk.tear_last_write(keep_blocks=0)
        fs2 = LFS.mount(raw)
        # The file may be partially recovered (size metadata in a lost
        # inode block), but the filesystem itself must be consistent.
        assert check_filesystem(fs2).ok

    def test_tear_has_no_effect_after_checkpoint(self):
        fs, disk, raw = fresh()
        fs.write_path("/done", b"d" * (4 * BLOCK_SIZE))
        fs.checkpoint()
        # The last write of the checkpoint is the superblock itself;
        # tearing *after* it (no further writes) changes nothing.
        fs.write_path("/scratch", b"s")     # buffered only, never synced
        fs2 = LFS.mount(raw)
        assert fs2.read_path("/done") == b"d" * (4 * BLOCK_SIZE)
