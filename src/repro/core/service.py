"""The service process: the kernel's user-space agent for tertiary I/O.

"The service process waits for requests from either the kernel or from the
I/O process: ... the fetch of a non-resident tertiary segment, the
ejection of some cached line, or a write to tertiary storage of a
freshly-assembled tertiary segment" (paper §6.7).

Demand fetches are synchronous from the faulting application's point of
view — the kernel puts the process to sleep until the service process
completes the fetch — so here the requesting actor is charged the whole
excursion.  Segment write-outs are asynchronous in the paper ("the request
is serviced asynchronously"); the pipelined form lives in
:class:`~repro.core.migrator.MigrationPipeline`, while this class offers
the synchronous building blocks both modes share.

All tertiary I/O is issued through the
:class:`~repro.sched.TertiaryScheduler` facade (rule HL007): demand
fetches at top priority, prefetches and write-outs as background
classes the scheduler may batch per volume.
"""

from __future__ import annotations

from repro import obs
from repro.errors import EndOfMedium, MigrationError, PermanentDeviceError
from repro.sched.scheduler import CAT_QUEUING
from repro.sim.actor import Actor

#: Kernel<->service round trip cost per request, virtual seconds (ioctl +
#: select wakeup on the paper's host).
REQUEST_OVERHEAD = 0.04


class ServiceProcess:
    """Coordinates the segment cache, the scheduler, and the I/O server."""

    def __init__(self, fs, ioserver, cache, sched) -> None:
        self.fs = fs
        self.ioserver = ioserver
        self.cache = cache
        #: Installed by :meth:`HighLightFS.set_prefetcher`.
        self.prefetcher = None
        self.sched = sched

    # -- demand fetch ------------------------------------------------------------

    def demand_fetch(self, actor: Actor, tsegno: int) -> int:
        """Bring ``tsegno`` into the cache; returns its disk segment.

        The faulting actor pays: request hand-off, line acquisition
        (possibly an ejection), the Footprint read, and the raw disk write.
        """
        existing = self.cache.lookup(tsegno)
        if existing is not None:
            return existing
        actor.sleep(REQUEST_OVERHEAD)
        self.ioserver.account.charge(CAT_QUEUING, REQUEST_OVERHEAD)
        disk_segno = self.cache.acquire_line(actor)
        self.sched.fetch(actor, tsegno, disk_segno)
        self.cache.register(tsegno, disk_segno, actor)
        self.fs.stats.demand_fetches += 1
        obs.counter("service_demand_fetches_total",
                    "synchronous fetches triggered by block faults").inc()
        if self.fs.rearranger is not None:
            self.fs.rearranger.note_fetch(actor, tsegno)
        return disk_segno

    def after_miss(self, actor: Actor, tsegno: int) -> None:
        """Post-fault hook: submit prefetches once the faulting read has
        its data, so prefetch I/O never sits between the application and
        the block it faulted on.

        Prefetches are background-class scheduler requests: in
        pass-through mode they run immediately on the prefetch actor
        (occupying real device time without blocking the current fault);
        in scheduled mode they queue for volume-batched dispatch and
        never charge the demand path at all.
        """
        if self.prefetcher is None:
            return
        for extra in self.prefetcher.after_fetch(self.fs, tsegno):
            if not self.sched.submit_prefetch(actor, extra):
                break

    # -- write-out ---------------------------------------------------------------

    def writeout_line(self, actor: Actor, tsegno: int) -> None:
        """Copy a staged line to tertiary storage, handling end-of-medium."""
        for _ in self.writeout_line_steps(actor, tsegno):
            pass

    def writeout_line_steps(self, actor: Actor, tsegno: int):
        """Generator form of :meth:`writeout_line` (one yield per raw-disk
        chunk, for scheduler interleaving)."""
        disk_segno = self.cache.lookup(tsegno)
        if disk_segno is None:
            raise MigrationError(f"tertiary segment {tsegno} has no line")
        actor.sleep(REQUEST_OVERHEAD)
        self.ioserver.account.charge(CAT_QUEUING, REQUEST_OVERHEAD)
        try:
            yield from self.sched.writeout_steps(actor, disk_segno, tsegno)
        except EndOfMedium:
            self._handle_end_of_medium(actor, tsegno)
            return
        except PermanentDeviceError as exc:
            self._handle_dead_volume(actor, tsegno, exc)
            return
        self.cache.seal_staging(tsegno)
        # The primary landed: now (and only now) the segment gets its
        # replicas, whichever path — first try or restage — wrote it.
        if self.fs.replicas is not None:
            self.fs.replicas.replicate(actor, tsegno)

    def _handle_end_of_medium(self, actor: Actor, tsegno: int) -> None:
        """Volume filled early: mark it full, restage on the next volume.

        Paper §6.3: "the volume is marked full and the last (partially
        written) segment is re-written onto the next volume."
        """
        vol, _seg = self.fs.aspace.volume_of(tsegno)
        vol_id = self.fs.tsegfile.volumes[vol].volume_id
        self.fs.tsegfile.mark_volume_full(vol)
        self.fs.footprint.mark_full(vol_id)
        self._restage_and_retry(actor, tsegno, vol_id,
                                "hit end-of-medium")

    def _handle_dead_volume(self, actor: Actor, tsegno: int,
                            exc: PermanentDeviceError) -> None:
        """The target medium died mid-write-out: never drop the data —
        fence the volume off from the allocator and re-stage the line
        onto a healthy one (same path as end-of-medium)."""
        vol, _seg = self.fs.aspace.volume_of(tsegno)
        vol_id = self.fs.tsegfile.volumes[vol].volume_id
        self.fs.tsegfile.mark_volume_full(vol)
        self.fs.footprint.mark_full(vol_id)
        obs.counter("service_writeout_restages_total",
                    "write-outs re-staged onto a healthy volume after a "
                    "permanent device failure").inc()
        self._restage_and_retry(actor, tsegno, exc.volume_id,
                                f"failed permanently ({exc})")

    def _restage_and_retry(self, actor: Actor, tsegno: int,
                           vol_id, why: str) -> None:
        if self.fs.migrator is None:
            raise MigrationError(
                f"volume {vol_id} {why} and no migrator is "
                "available to restage the segment")
        # Restaging is requeue work: charge it to the queuing category so
        # the write-out's elapsed time still partitions into Table 4.
        t0 = actor.time
        new_tsegno = self.fs.migrator.restage_line(actor, tsegno)
        self.ioserver.account.charge(CAT_QUEUING, actor.time - t0)
        self.writeout_line(actor, new_tsegno)

    # -- ejection ----------------------------------------------------------------

    def eject(self, actor: Actor, tsegno: int) -> None:
        """Eject a cache line, copying a staging line out first."""
        if self.cache.is_staging(tsegno):
            self.writeout_line(actor, tsegno)
        actor.sleep(REQUEST_OVERHEAD)
        self.cache.eject(tsegno, actor=actor)

    def flush_cache(self, actor: Actor) -> int:
        """Eject every line (copying out any staging lines); returns count."""
        count = 0
        for tsegno in list(self.cache.lines()):
            self.eject(actor, tsegno)
            count += 1
        return count
