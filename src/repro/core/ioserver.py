"""The I/O server: moves whole segments between disk and tertiary storage.

"The I/O server ... accesses the tertiary storage device(s) through the
Footprint interface, and the on-disk cache directly via a character (raw)
pseudo-device.  Direct access avoids memory-memory copies" (paper §6.7).

Demand fetch path: Footprint read (tertiary -> memory) of the closest
healthy copy the replica catalogue offers, raw disk write (memory ->
cache line).  Write-out path: raw disk read of the staging line,
Footprint write.  Raw disk transfers are issued in 4-block chunks;
while the migrator is simultaneously gathering blocks and filling fresh
staging lines, every chunk pays arm repositioning — Table 6's "disk arm
contention" phase is exactly this interleaving.

All phase durations are recorded in a :class:`~repro.sim.actor.TimeAccount`
using the paper's Table 4 categories, which
:data:`repro.sched.scheduler.TABLE4_CATEGORIES` names.

This class is the *back end*: producers never call it directly.  All
submissions arrive through the :class:`~repro.sched.TertiaryScheduler`
facade, which adds request classes, mount batching, and admission
control in front of these raw segment copies (rule HL007 enforces the
choke point statically).
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.blockdev.datapath import refs_nbytes
from repro.core.addressing import line_read_refs, line_writev
from repro.errors import PermanentDeviceError
from repro.sched.scheduler import (CAT_DISK_WRITE, CAT_FOOTPRINT_READ,
                                   CAT_FOOTPRINT_WRITE, CAT_IOSERVER_READ)
from repro.sim.actor import Actor, TimeAccount

#: Chunk size (blocks) of the raw disk reads of a write-out.  Small
#: chunks expose the read path to migrator arm contention the way the
#: paper's I/O server was (Tables 4 and 6).
IO_CHUNK_BLOCKS = 4


class IOServer:
    """Executes segment copies between the disk farm and tertiary media."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self.aspace = fs.aspace
        self.tsegfile = fs.tsegfile
        self.disk = fs.disk
        self.account = TimeAccount()
        self.segments_fetched = 0
        self.segments_written = 0
        #: (tsegno, completion time, bytes) per write-out — phase analysis.
        self.writeout_log: list = []
        self._pinned_volume: Optional[int] = None

    # -- address helpers ---------------------------------------------------------

    def _volume_blkno(self, location):
        """Map a ``(volume index, seg in volume)`` copy location to
        (volume_id, first block on volume)."""
        vol, seg_in_vol = location
        return (self.tsegfile.volumes[vol].volume_id,
                seg_in_vol * self.aspace.blocks_per_seg)

    # -- demand fetch -------------------------------------------------------------

    def fetch(self, actor: Actor, tsegno: int, disk_segno: int) -> None:
        """Copy one tertiary segment into a disk cache line.

        The segment travels tertiary -> memory -> raw disk; the paper
        notes the eventual third copy (re-read through the buffer cache)
        as the measured inefficiency of the fetch path (§7.2).
        """
        start = actor.time
        image, vol_id = self.read_closest(actor, tsegno)
        t0 = actor.time
        line_writev(self.disk, actor, self.aspace.seg_base(disk_segno),
                    image, self.aspace)
        self.account.charge(CAT_DISK_WRITE, actor.time - t0)
        nbytes = refs_nbytes(image)
        self.segments_fetched += 1
        obs.counter("ioserver_segments_fetched_total",
                    "tertiary segments demand-fetched into cache lines").inc()
        obs.counter("ioserver_fetch_bytes_total",
                    "bytes copied tertiary -> disk cache").inc(nbytes)
        obs.histogram("ioserver_fetch_seconds",
                      "virtual seconds per whole-segment fetch").observe(
                          actor.time - start)
        obs.event(obs.EV_SEGMENT_FETCH, actor.time, tsegno=tsegno,
                  disk_segno=disk_segno, volume=vol_id, bytes=nbytes,
                  seconds=actor.time - start, actor=actor.name)

    def read_closest(self, actor: Actor, tsegno: int):
        """Read ``tsegno`` from its closest healthy copy (paper §5.4).

        Returns ``(borrowed image refs, volume_id)``.  The replica
        catalogue (``fs.replicas``) ranks the copies; without one, or
        with no healthy copy left, the primary is read (and raises
        ``MediaFailure`` if its medium is gone).  A permanent failure
        earns one degraded retry on the next healthy copy not yet tried
        — by then the retry policy has fenced the failed volume.
        Reads a non-primary copy served count in
        ``replicas.replica_reads``; every attempt's Footprint time is
        charged to ``footprint_read``.
        """
        replicas = self.fs.replicas
        primary = self.aspace.volume_of(tsegno)
        ranked = replicas.copies_of(tsegno) if replicas is not None else []
        tried = ranked[0] if ranked else primary
        try:
            image = self._read_copy(actor, tried)
        except PermanentDeviceError:
            spare = [] if replicas is None else [
                c for c in replicas.copies_of(tsegno) if c != tried]
            if not spare:
                raise
            tried = spare[0]
            image = self._read_copy(actor, tried)
            replicas.degraded_reads += 1
            obs.counter("degraded_reads_total",
                        "segment reads re-served from another copy after "
                        "a permanent failure").inc()
        if tried != primary:
            replicas.replica_reads += 1
        return image, self._volume_blkno(tried)[0]

    def _read_copy(self, actor: Actor, location):
        vol_id, blkno = self._volume_blkno(location)
        t0 = actor.time
        try:
            return self.fs.footprint.read_refs(actor, vol_id, blkno,
                                            self.aspace.blocks_per_seg)
        finally:
            self.account.charge(CAT_FOOTPRINT_READ, actor.time - t0)

    # -- write-out ---------------------------------------------------------------

    def writeout(self, actor: Actor, disk_segno: int, tsegno: int) -> None:
        """Synchronous form of :meth:`writeout_steps`."""
        for _ in self.writeout_steps(actor, disk_segno, tsegno):
            pass

    def writeout_steps(self, actor: Actor, disk_segno: int, tsegno: int):
        """Copy a staged segment from its disk line to tertiary storage.

        A generator that yields after each raw-disk chunk, so a scheduler
        can interleave the migrator's own disk traffic between chunks —
        that interleaving *is* Table 6's arm contention.

        Raises :class:`EndOfMedium` through to the service process, which
        marks the volume full and restages the segment on the next volume
        (paper §6.3).
        """
        bps = self.aspace.blocks_per_seg
        line_base = self.aspace.seg_base(disk_segno)
        start = actor.time
        image = []  # borrowed ranges accumulated chunk by chunk
        offset = 0
        while offset < bps:
            run = min(IO_CHUNK_BLOCKS, bps - offset)
            t0 = actor.time
            image.extend(line_read_refs(self.disk, actor, line_base + offset,
                                        run, self.aspace))
            self.account.charge(CAT_IOSERVER_READ, actor.time - t0)
            offset += run
            yield
        nbytes = refs_nbytes(image)

        vol_id, blkno = self._volume_blkno(self.aspace.volume_of(tsegno))
        if vol_id != self._pinned_volume:
            # Dedicate one drive to the currently-active writing volume
            # (the paper's test-drive allocation, §7).
            self.fs.footprint.pin_write_drive(vol_id)
            self._pinned_volume = vol_id
        t0 = actor.time
        try:
            self.fs.footprint.write_refs(actor, vol_id, blkno, image)
        finally:
            self.account.charge(CAT_FOOTPRINT_WRITE, actor.time - t0)
        self.segments_written += 1
        self.writeout_log.append((tsegno, actor.time, nbytes))
        obs.counter("ioserver_segments_written_total",
                    "staged segments copied out to tertiary storage").inc()
        obs.counter("ioserver_writeout_bytes_total",
                    "bytes copied disk staging -> tertiary").inc(nbytes)
        obs.histogram("ioserver_writeout_seconds",
                      "virtual seconds per whole-segment write-out").observe(
                          actor.time - start)
        obs.event(obs.EV_SEGMENT_WRITEOUT, actor.time, tsegno=tsegno,
                  disk_segno=disk_segno, volume=vol_id, bytes=nbytes,
                  seconds=actor.time - start, actor=actor.name)

    def read_segment_image(self, actor: Actor, tsegno: int) -> bytes:
        """Read a whole tertiary segment (tertiary cleaner's bulk path)."""
        vol_id, blkno = self._volume_blkno(self.aspace.volume_of(tsegno))
        return self.fs.footprint.read(actor, vol_id, blkno,
                                   self.aspace.blocks_per_seg)
