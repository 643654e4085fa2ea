"""Linear tape media and drives (the Metrum unit's innards).

Tape positioning is linear: the cost of reaching a block is proportional
to the distance the tape must wind, and writing is append-biased.  A
cartridge's *effective* capacity can fall short of nominal when
device-level compression underperforms (paper §6.3); HighLight reacts to
the resulting ``EndOfMedium`` by marking the volume full and re-writing the
interrupted segment on the next volume.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.blockdev.bus import SCSIBus
from repro.blockdev.datapath import ExtentRef, Part
from repro.blockdev.jukebox import Drive, RemovableVolume
from repro.sim.actor import Actor
from repro.sim.resources import TimelineResource, occupy_all


class TapeVolume(RemovableVolume):
    """One tape cartridge (e.g. a 14.5 GB Metrum cartridge)."""


class TapeDrive(Drive):
    """A streaming tape transport.

    Timing model: ``thread_time`` on the transport once per media load
    (charged to the first I/O, which finds the tape at its start), wind
    at ``wind_rate`` bytes of tape distance per second to reach a target
    block, then stream at ``read_rate`` / ``write_rate``.
    """

    def __init__(self, name: str, bus: Optional[SCSIBus] = None,
                 read_rate: float = 1024.0 * 1024,
                 write_rate: float = 1024.0 * 1024,
                 wind_rate: float = 80.0 * 1024 * 1024,
                 thread_time: float = 20.0,
                 per_op_overhead: float = 0.005,
                 block_size: int = 4096) -> None:
        super().__init__(name, bus)
        self.read_rate = read_rate
        self.write_rate = write_rate
        self.wind_rate = wind_rate
        self.thread_time = thread_time
        self.per_op_overhead = per_op_overhead
        self.block_size = block_size
        self.transport = TimelineResource(f"{name}.transport")
        #: Head position on the loaded tape; None until it is threaded.
        self.position_blk: Optional[int] = None

    def on_load(self, volume: RemovableVolume) -> None:
        super().on_load(volume)
        self.position_blk = None

    def _wind_to(self, actor: Actor, blkno: int) -> float:
        """Wind the tape from the current position to ``blkno``,
        threading a freshly loaded tape (at its start) first; returns
        the wind time alone."""
        if self.position_blk is None:
            self.transport.occupy(actor, self.thread_time)
            self.position_blk = 0
        distance_bytes = abs(blkno - self.position_blk) * self.block_size
        seconds = distance_bytes / self.wind_rate
        if seconds:
            self.transport.occupy(actor, seconds)
        return seconds

    def _stream(self, actor: Actor, nbytes: int, is_write: bool) -> float:
        rate = self.write_rate if is_write else self.read_rate
        xfer = nbytes / rate
        if self.bus is not None:
            wire = nbytes / self.bus.bandwidth
            occupy_all(actor, [self.transport, self.bus], max(xfer, wire))
        else:
            self.transport.occupy(actor, xfer)
        return xfer

    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        volume = self.require_loaded()
        refs = volume.store.read_refs(blkno, nblocks)
        self.transport.occupy(actor, self.per_op_overhead)
        wind = self._wind_to(actor, blkno)
        nbytes = nblocks * volume.block_size
        xfer = self._stream(actor, nbytes, is_write=False)
        self.position_blk = blkno + nblocks
        self.stats.record("read", nbytes, wind, xfer)
        return refs

    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        volume = self.require_loaded()
        nbytes = sum(map(len, parts))
        self._pre_write(volume, blkno, nbytes // volume.block_size)
        volume.store.writev(blkno, parts)
        self.transport.occupy(actor, self.per_op_overhead)
        wind = self._wind_to(actor, blkno)
        xfer = self._stream(actor, nbytes, is_write=True)
        self.position_blk = blkno + nbytes // self.block_size
        self.stats.record("write", nbytes, wind, xfer)
