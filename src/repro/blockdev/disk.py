"""A magnetic disk: one arm, calibrated streaming rates, optional SCSI bus."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.blockdev.base import BlockDevice
from repro.blockdev.bus import SCSIBus
from repro.blockdev.datapath import ExtentRef, Part
from repro.blockdev.geometry import DiskProfile
from repro.sim.actor import Actor
from repro.sim.resources import TimelineResource, occupy_all


class Head:
    """One seek-and-rotate head model: a disk's arm or an MO drive's head
    (MO drives behave like slow disks).

    The head is a :class:`TimelineResource`; when two actors (say the
    migrator and the I/O server) interleave operations on it, every
    operation that does not continue the *immediately preceding* physical
    position pays seek + rotation, which is the entire story behind the
    paper's Table 6 "disk arm contention" phase.
    """

    def __init__(self, name: str, profile: DiskProfile,
                 bus: Optional[SCSIBus]) -> None:
        self.profile = profile
        self.bus = bus
        self.timeline = TimelineResource(name)
        self.reset()

    def reset(self) -> None:
        """Forget the position (a fresh platter has no history)."""
        self._last_end_blk: Optional[int] = None
        self._last_end_time = float("-inf")

    def _positioning(self, actor: Actor, blkno: int) -> float:
        """Seek + rotation cost for an op starting at ``blkno``, or 0 if
        the head can stream straight into it."""
        streams = (
            self._last_end_blk is not None
            and blkno == self._last_end_blk
            and actor.time - self._last_end_time <= self.profile.streaming_gap
        )
        if streams:
            return 0.0
        if self._last_end_blk is None:
            seek = self.profile.avg_seek
        elif blkno == self._last_end_blk:
            # Sequential continuation that arrived too late: the sector
            # has rotated past — pay a blown revolution, but no seek.
            return self.profile.rotation_time
        else:
            seek = self.profile.seek(self._last_end_blk, blkno)
        return seek + self.profile.avg_rotational_latency

    def io(self, actor: Actor, blkno: int, nbytes: int,
           is_write: bool) -> tuple:
        """Charge one operation to ``actor``; returns (positioning,
        transfer) seconds."""
        pos = self._positioning(actor, blkno)
        xfer = self.profile.transfer(nbytes, is_write)
        # Seek/rotation holds only the head (the device disconnects from
        # the bus); the transfer holds head + bus together.
        self.timeline.occupy(actor, self.profile.per_op_overhead + pos)
        if self.bus is not None:
            wire = nbytes / self.bus.bandwidth
            occupy_all(actor, [self.timeline, self.bus], max(xfer, wire))
        else:
            self.timeline.occupy(actor, xfer)
        self._last_end_blk = blkno + nbytes // self.profile.block_size
        self._last_end_time = actor.time
        return pos, xfer


class DiskDevice(BlockDevice):
    """A single-spindle magnetic disk: one :class:`Head`, the arm."""

    def __init__(self, profile: DiskProfile, name: Optional[str] = None,
                 bus: Optional[SCSIBus] = None) -> None:
        super().__init__(name or profile.name, profile.capacity_blocks,
                         profile.block_size)
        self.profile = profile
        self.arm = Head(f"{self.name}.arm", profile, bus)

    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        refs = self.store.read_refs(blkno, nblocks)
        nbytes = nblocks * self.block_size
        pos, xfer = self.arm.io(actor, blkno, nbytes, is_write=False)
        self.stats.record("read", nbytes, pos, xfer)
        return refs

    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        nbytes = sum(map(len, parts))
        self.store.check_range(blkno, nbytes // self.block_size)
        self.store.writev(blkno, parts)
        pos, xfer = self.arm.io(actor, blkno, nbytes, is_write=True)
        self.stats.record("write", nbytes, pos, xfer)
