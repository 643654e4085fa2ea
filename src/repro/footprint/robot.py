"""Footprint implementation over the jukebox simulators."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro import obs
from repro.blockdev.datapath import (Buffer, ExtentRef, ref_of,
                                     refs_nbytes)
from repro.blockdev.jukebox import Jukebox
from repro.errors import NoSuchVolume
from repro.footprint.interface import FootprintInterface, VolumeInfo
from repro.sim.actor import Actor


class JukeboxFootprint(FootprintInterface):
    """Drives a :class:`~repro.blockdev.jukebox.Jukebox` behind the
    Footprint API.

    Implements the paper's drive-allocation policy: one drive may be pinned
    to the active writing volume; reads for *other* volumes go to the
    remaining drives, but reads that hit the writing volume are served by
    the writing drive itself ("the writing drive also fulfilled any read
    requests for its platter").
    """

    def __init__(self, jukebox: Jukebox) -> None:
        self.jukebox = jukebox
        self._write_drive: Optional[int] = None
        self._write_volume: Optional[int] = None
        #: Optional :class:`repro.faults.FaultInjector` consulted before
        #: each I/O reaches a drive (media/timeout/slow-I/O injection).
        self.fault_injector = None
        #: ``(volume_id, blkno, refs)`` callbacks fired after each
        #: *successful* write — ``repro.persist`` appends its scrub CRC
        #: ledger here.  A failed or torn write never reaches an
        #: observer, so a stale ledger entry is exactly the scrubber's
        #: detection signal.  Pure host computation: no virtual time, no
        #: events.
        self.write_observers: List[Callable[[int, int, List[ExtentRef]],
                                            None]] = []

    # -- inventory ----------------------------------------------------------

    def _info(self, volume_id: int) -> VolumeInfo:
        vol = self.jukebox.volume(volume_id)
        return VolumeInfo(
            volume_id=vol.volume_id,
            capacity_blocks=vol.capacity_blocks,
            effective_capacity_blocks=vol.effective_capacity_blocks,
            block_size=vol.block_size,
            write_once=vol.write_once,
            marked_full=vol.marked_full,
            health=vol.health,
        )

    def volumes(self) -> List[VolumeInfo]:
        return [self._info(vid) for vid in sorted(self.jukebox.volumes)]

    def volume_info(self, volume_id: int) -> VolumeInfo:
        return self._info(volume_id)

    # -- drive policy ---------------------------------------------------------

    def pin_write_drive(self, volume_id: int) -> None:
        if volume_id not in self.jukebox.volumes:
            raise NoSuchVolume(f"no volume {volume_id}")
        if self._write_drive is not None:
            self.jukebox.drives[self._write_drive].pinned = False
        self._write_volume = volume_id
        self._write_drive = None  # lazily bound on the first write
        obs.counter("footprint_write_drive_pins_total",
                    "write-drive reassignments to a new volume").inc()

    def _drive_for(self, actor: Actor, volume_id: int,
                   is_write: bool) -> int:
        if volume_id == self._write_volume:
            if self._write_drive is None:
                self._write_drive = self.jukebox.load(actor, volume_id)
                self.jukebox.drives[self._write_drive].pinned = True
            return self.jukebox.load(actor, volume_id, self._write_drive)
        return self.jukebox.load(actor, volume_id)

    # -- I/O ----------------------------------------------------------------

    def _inject(self, actor: Actor, op: str, volume_id: int, blkno: int,
                nblocks: int) -> None:
        if self.fault_injector is not None:
            self.fault_injector.on_io(actor, op, volume_id, blkno, nblocks)

    def read(self, actor: Actor, volume_id: int, blkno: int,
             nblocks: int) -> bytes:
        t0 = actor.time
        idx = self._drive_for(actor, volume_id, is_write=False)
        self._inject(actor, "read", volume_id, blkno, nblocks)
        data = self.jukebox.drives[idx].read(actor, blkno, nblocks)
        self._account("read", len(data), actor.time - t0)
        return data

    def write(self, actor: Actor, volume_id: int, blkno: int,
              data: Buffer) -> None:
        t0 = actor.time
        idx = self._drive_for(actor, volume_id, is_write=True)
        self._inject(actor, "write", volume_id, blkno,
                     len(data) // (self.jukebox.volume(volume_id).block_size
                                   or 1))
        self.jukebox.drives[idx].write(actor, blkno, data)
        self._account("write", len(data), actor.time - t0)
        for observe in self.write_observers:
            observe(volume_id, blkno, [ref_of(data)])

    def read_refs(self, actor: Actor, volume_id: int, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        t0 = actor.time
        idx = self._drive_for(actor, volume_id, is_write=False)
        self._inject(actor, "read", volume_id, blkno, nblocks)
        refs = self.jukebox.drives[idx].read_refs(actor, blkno, nblocks)
        self._account("read", refs_nbytes(refs), actor.time - t0)
        return refs

    def write_refs(self, actor: Actor, volume_id: int, blkno: int,
                   refs: List[ExtentRef]) -> None:
        t0 = actor.time
        idx = self._drive_for(actor, volume_id, is_write=True)
        self._inject(actor, "write", volume_id, blkno,
                     refs_nbytes(refs)
                     // (self.jukebox.volume(volume_id).block_size or 1))
        observed = None
        if self.write_observers:
            # Capture windows while the borrow is still live: the drive's
            # write_refs adopts (moves) the refs, and viewing a moved ref
            # is a borrow-sanitizer trap.  Views taken now stay valid —
            # extent buffers are never mutated in place — and the observer
            # still only fires after the write succeeds.
            observed = [ExtentRef(r.view(), 0, r.nbytes) for r in refs]
        self.jukebox.drives[idx].write_refs(actor, blkno, refs)
        self._account("write", refs_nbytes(refs), actor.time - t0)
        for observe in self.write_observers:
            observe(volume_id, blkno, observed)

    @staticmethod
    def _account(op: str, nbytes: int, seconds: float) -> None:
        obs.counter("footprint_ops_total", "Footprint API calls served",
                    ("op",)).labels(op=op).inc()
        obs.counter("footprint_bytes_total",
                    "bytes moved through the Footprint API",
                    ("op",)).labels(op=op).inc(nbytes)
        obs.histogram("footprint_op_seconds",
                      "virtual seconds per Footprint op (incl. media loads)",
                      ("op",)).labels(op=op).observe(seconds)

    def mark_full(self, volume_id: int) -> None:
        self.jukebox.volume(volume_id).marked_full = True
        obs.counter("footprint_volumes_marked_full_total",
                    "volumes that hit end-of-medium").inc()
