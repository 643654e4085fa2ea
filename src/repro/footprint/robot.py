"""Footprint implementation over the jukebox simulators."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.blockdev.datapath import (ExtentRef, Part, as_ref, ref_of,
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

    With a :class:`repro.faults.RetryPolicy` in the ``retry`` slot, every
    attempt of each read and write runs under it, for the request class
    the stack's scheduler names; an injector in the jukebox's
    ``fault_injector`` slot is consulted before each I/O reaches a drive.
    """

    def __init__(self, jukebox: Jukebox) -> None:
        self.jukebox = jukebox
        self._write_drive: Optional[int] = None
        self._write_volume: Optional[int] = None
        #: The stack's :class:`repro.faults.RetryPolicy`, set by
        #: ``FaultManager`` (and cleared when a filesystem mounts over
        #: this Footprint); ``None`` runs each I/O once.
        self.retry = None
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

    def _run(self, actor: Actor, volume_id: int, io, *args):
        """One Footprint call: ``io`` once, or under the retry policy."""
        retry = self.retry
        if retry is None:
            return io(actor, volume_id, *args)
        return retry.run(actor, retry.sched.active_class,
                         lambda: io(actor, volume_id, *args),
                         volume_id=volume_id)

    def _inject(self, actor: Actor, op: str, volume_id: int, blkno: int,
                nblocks: int) -> None:
        injector = self.jukebox.fault_injector
        if injector is not None:
            injector.on_io(actor, op, volume_id, blkno, nblocks)

    def read_refs(self, actor: Actor, volume_id: int, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        return self._run(actor, volume_id, self._read_refs, blkno, nblocks)

    def writev(self, actor: Actor, volume_id: int, blkno: int,
               parts: Sequence[Part]) -> None:
        self._run(actor, volume_id, self._writev, blkno, parts)

    def _read_refs(self, actor: Actor, volume_id: int, blkno: int,
                   nblocks: int) -> List[ExtentRef]:
        t0 = actor.time
        idx = self._drive_for(actor, volume_id, is_write=False)
        self._inject(actor, "read", volume_id, blkno, nblocks)
        refs = self.jukebox.drives[idx].read_refs(actor, blkno, nblocks)
        self._account("read", refs_nbytes(refs), actor.time - t0)
        return refs

    def _writev(self, actor: Actor, volume_id: int, blkno: int,
                parts: Sequence[Part]) -> None:
        t0 = actor.time
        idx = self._drive_for(actor, volume_id, is_write=True)
        nbytes = sum(map(len, parts))
        self._inject(actor, "write", volume_id, blkno,
                     nbytes // (self.jukebox.volume(volume_id).block_size
                                or 1))
        observed = None
        if self.write_observers:
            # Capture windows while the borrow is still live: the drive's
            # writev adopts (moves) the refs, and viewing a moved ref is
            # a borrow-sanitizer trap.  Views taken now stay valid —
            # extent buffers are never mutated in place — and the observer
            # still only fires after the write succeeds.
            observed = [ref_of(as_ref(p).view()) for p in parts]
        self.jukebox.drives[idx].writev(actor, blkno, parts)
        self._account("write", nbytes, actor.time - t0)
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
