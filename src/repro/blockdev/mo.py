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
from repro.blockdev.disk import Head
from repro.blockdev.geometry import DiskProfile
from repro.blockdev.jukebox import Drive, RemovableVolume
from repro.sim.actor import Actor


class MOPlatter(RemovableVolume):
    """One magneto-optic cartridge side."""


class MODrive(Drive):
    """A magneto-optic reader/writer: a disk's :class:`Head` over
    whichever platter is loaded."""

    def __init__(self, name: str, profile: DiskProfile,
                 bus: Optional[SCSIBus] = None) -> None:
        super().__init__(name, bus)
        self.profile = profile
        self.head = Head(f"{name}.head", profile, bus)

    def on_load(self, volume: RemovableVolume) -> None:
        super().on_load(volume)
        self.head.reset()

    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        volume = self.require_loaded()
        refs = volume.store.read_refs(blkno, nblocks)
        nbytes = nblocks * volume.block_size
        pos, xfer = self.head.io(actor, blkno, nbytes, is_write=False)
        self.stats.record("read", nbytes, pos, xfer)
        return refs

    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        volume = self.require_loaded()
        nbytes = sum(map(len, parts))
        self._pre_write(volume, blkno, nbytes // volume.block_size)
        volume.store.writev(blkno, parts)
        pos, xfer = self.head.io(actor, blkno, nbytes, is_write=True)
        self.stats.record("write", nbytes, pos, xfer)
