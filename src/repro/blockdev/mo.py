"""Magneto-optic media and drives (the HP 6300 changer's innards).

MO drives behave like slow disks: a seeking head over a rotating platter.
Writes are much slower than reads (Table 5: 451 vs 204 KB/s) because 1993
MO drives needed separate erase + write passes.  The calibrated streaming
rates already fold that in.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.blockdev.bus import SCSIBus
from repro.blockdev.datapath import ExtentRef, Part
from repro.blockdev.geometry import DiskProfile
from repro.blockdev.jukebox import Drive, RemovableVolume
from repro.sim.actor import Actor
from repro.sim.resources import TimelineResource, occupy_all


class MOPlatter(RemovableVolume):
    """One magneto-optic cartridge side."""


class MODrive(Drive):
    """A magneto-optic reader/writer with disk-like positioning costs."""

    def __init__(self, name: str, profile: DiskProfile,
                 bus: Optional[SCSIBus] = None) -> None:
        super().__init__(name, bus)
        self.profile = profile
        self.head = TimelineResource(f"{name}.head")
        self._last_end_blk: Optional[int] = None
        self._last_end_time = float("-inf")

    def on_load(self, volume: RemovableVolume) -> None:
        super().on_load(volume)
        self._last_end_blk = None  # fresh platter: no positioning history
        self._last_end_time = float("-inf")

    def _positioning(self, actor: Actor, blkno: int) -> float:
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
            return self.profile.rotation_time  # blown revolution, no seek
        else:
            seek = self.profile.seek(self._last_end_blk, blkno)
        return seek + self.profile.avg_rotational_latency

    def _do_io(self, actor: Actor, blkno: int, nbytes: int,
               is_write: bool) -> tuple:
        pos = self._positioning(actor, blkno)
        xfer = self.profile.transfer(nbytes, is_write)
        self.head.occupy(actor, self.profile.per_op_overhead + pos)
        if self.bus is not None:
            wire = nbytes / self.bus.bandwidth
            occupy_all(actor, [self.head, self.bus], max(xfer, wire))
        else:
            self.head.occupy(actor, xfer)
        nblocks = nbytes // self.profile.block_size
        self._last_end_blk = blkno + nblocks
        self._last_end_time = actor.time
        return pos, xfer

    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        volume = self.require_loaded()
        refs = volume.store.read_refs(blkno, nblocks)
        nbytes = nblocks * volume.block_size
        pos, xfer = self._do_io(actor, blkno, nbytes, is_write=False)
        self.stats.record("read", nbytes, pos, xfer)
        return refs

    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        volume = self.require_loaded()
        nbytes = sum(map(len, parts))
        self._pre_write(volume, blkno, nbytes // volume.block_size)
        volume.store.writev(blkno, parts)
        pos, xfer = self._do_io(actor, blkno, nbytes, is_write=True)
        self.stats.record("write", nbytes, pos, xfer)
