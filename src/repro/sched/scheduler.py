"""The tertiary request scheduler: QoS classes, mount batching, admission.

The paper's service process and I/O server drain a single FIFO (§6.7),
so background traffic — prefetches, migration write-outs, cleaner
sweeps — lands on the jukebox interleaved with demand fetches, and every
interleaving point can cost a 13.5 s robot exchange.  This module
separates the request classes the way CASTOR-style stagers do:

* **classes** — ``demand > prefetch > write-out > cleaner`` in strict
  priority, with aging so a starved background request is eventually
  promoted ahead of everything;
* **mount batching** — the queue is served as an elevator over volume
  ids: all queued requests for the currently mounted volume are
  coalesced (bounded by ``max_batch_residency``) before the robot
  switches media;
* **admission control** — per-class queue-depth and in-flight limits;
  background work is rejected (prefetch, cleaner) or force-drained
  (write-out, which may never drop data) under pressure.

Two modes.  ``passthrough`` (the default) executes every submission
immediately in FIFO order on the submitting actor, adding zero virtual
time and zero trace events — byte-identical to the pre-scheduler
pipeline, which the golden quickstart trace pins down.  ``scheduled``
queues background classes; :meth:`TertiaryScheduler.pump` dispatches
them batch-by-batch.

Accounting: queue wait is charged to the Table 4 ``queuing`` category at
dispatch, and — because every back-end operation reached through this
facade charges its own category — each scheduled request's wait+service
time partitions into :data:`TABLE4_CATEGORIES`.
The partition is assert-checked per dispatch; a violation raises
:class:`~repro.errors.AccountingViolation`.

The scheduler is also the one place that names a tertiary I/O's request
class (:attr:`TertiaryScheduler.active_class`): the retry policy the
Footprint runs each call under picks its per-class budget from it.

This facade is the sanctioned choke point for tertiary I/O: rule HL007
flags any ``ioserver.fetch/writeout/...`` call outside this package.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro import obs
from repro.errors import AccountingViolation, MigrationError
from repro.sim.actor import Actor

#: Table 4 category names.
CAT_FOOTPRINT_WRITE = "footprint_write"
CAT_IOSERVER_READ = "ioserver_read"
CAT_FOOTPRINT_READ = "footprint_read"
CAT_DISK_WRITE = "disk_write"
CAT_QUEUING = "queuing"

#: Every category the I/O server / service process may charge.  The
#: categories partition elapsed time: each virtual second spent inside a
#: fetch, write-out, or request hand-off lands in exactly one bucket, so
#: their sum equals the wall time of the operations (tested by
#: ``tests/test_obs.py``) and Table 4's percentages cannot silently drift.
TABLE4_CATEGORIES = (CAT_FOOTPRINT_WRITE, CAT_IOSERVER_READ,
                     CAT_FOOTPRINT_READ, CAT_DISK_WRITE, CAT_QUEUING)

#: Scheduler operating modes.
MODE_PASSTHROUGH = "passthrough"
MODE_SCHEDULED = "scheduled"

#: Request classes, in strict priority order (lower rank wins).
CLASS_DEMAND = "demand"
CLASS_PREFETCH = "prefetch"
CLASS_WRITEOUT = "writeout"
CLASS_CLEANER = "cleaner"

REQUEST_CLASSES = (CLASS_DEMAND, CLASS_PREFETCH, CLASS_WRITEOUT,
                   CLASS_CLEANER)
PRIORITY: Dict[str, int] = {c: rank for rank, c in enumerate(REQUEST_CLASSES)}

#: Emitted once per scheduled-mode dispatch (never in passthrough mode,
#: so the golden trace is untouched by default).
EV_SCHED_DISPATCH = obs.register_event_type("sched_dispatch")

_DEFAULT_QUEUE_LIMITS = {CLASS_PREFETCH: 16, CLASS_WRITEOUT: 8,
                         CLASS_CLEANER: 32}
#: Per-class bound on concurrently executing dispatches.
INFLIGHT_LIMITS = {CLASS_PREFETCH: 2, CLASS_WRITEOUT: 1, CLASS_CLEANER: 1}

#: Accounting tolerance: virtual-time arithmetic is float; anything
#: beyond rounding noise is a genuine partition leak.
_ACCT_EPSILON = 1e-6


@dataclass
class Request:
    """One unit of tertiary work: queued, then dispatched.

    :meth:`TertiaryScheduler._dispatch` fills the last four fields when
    it runs the request, which then joins ``dispatch_log``."""

    rclass: str
    execute: Callable[[Actor], None]
    submitted: float
    seq: int
    #: Volume id the request touches (mount-batching key); ``None``
    #: means volume-agnostic — served with whatever is mounted.
    volume: Optional[int] = None
    tag: object = None
    #: Whether execution charges all its time to Table 4 categories
    #: (enables the strict partition check).
    table4: bool = False
    start: float = field(init=False, default=0.0)
    wait: float = field(init=False, default=0.0)
    service: float = field(init=False, default=0.0)
    #: Account delta over the dispatch, wait charge included.
    charged: float = field(init=False, default=0.0)


class TertiaryScheduler:
    """Schedules all traffic between request producers and the I/O server.

    Producers — the service process (demand fetches, write-outs), the
    prefetcher, the migrator and its pipeline, and the tertiary
    cleaner — submit through this object; nothing else may touch the
    :class:`~repro.core.ioserver.IOServer` (rule HL007).
    """

    def __init__(self, fs, ioserver, mode: str = MODE_PASSTHROUGH, *,
                 aging_threshold: float = 300.0,
                 max_batch_residency: int = 8,
                 queue_limits: Optional[Dict[str, int]] = None) -> None:
        if mode not in (MODE_PASSTHROUGH, MODE_SCHEDULED):
            raise ValueError(f"unknown scheduler mode {mode!r}")
        if max_batch_residency < 1:
            raise ValueError("max_batch_residency must be at least 1")
        self.fs = fs
        self.ioserver = ioserver
        self.mode = mode
        #: Queue age (virtual seconds) past which a background request
        #: is promoted ahead of every class and every batch.
        self.aging_threshold = aging_threshold
        #: Consecutive same-volume dispatches before the elevator must
        #: consider other volumes (bounds media-switch latency for the
        #: work queued behind the batch).
        self.max_batch_residency = max_batch_residency
        self.queue_limits = dict(_DEFAULT_QUEUE_LIMITS)
        if queue_limits:
            self.queue_limits.update(queue_limits)
        if self.queue_limits[CLASS_WRITEOUT] < 1:
            # A write-out is never rejected, so a full queue force-drains
            # its oldest; with room for none there is no oldest to drain.
            raise ValueError("the write-out queue limit must be at least 1")
        #: Actor that pays for prefetch I/O in passthrough mode (it runs
        #: alongside the app, exactly as the service process's used to).
        self.prefetch_actor = Actor("prefetcher")
        self._queue: List[Request] = []
        self._seq = 0
        #: Volume id the scheduler believes is mounted (demand fetches
        #: and dispatches update it; the elevator batches around it).
        self.current_volume: Optional[int] = None
        self._batch_served = 0
        self.in_flight: Dict[str, int] = {c: 0 for c in REQUEST_CLASSES}
        self.max_in_flight: Dict[str, int] = {c: 0 for c in REQUEST_CLASSES}
        #: Classes currently executing through the facade, innermost
        #: last, and the classes entered with :meth:`running`, which
        #: outrank them (see :attr:`active_class`).
        self._active_classes: List[str] = []
        self._running: List[str] = []
        #: Every request a scheduled-mode dispatch ran, in order.
        self.dispatch_log: List[Request] = []
        self.volume_switches = 0
        self.aged_promotions = 0
        self.forced_writeouts = 0
        self.admission_rejects: Dict[str, int] = {c: 0
                                                  for c in REQUEST_CLASSES}

    # -- introspection -----------------------------------------------------------

    def queued(self, rclass: Optional[str] = None) -> int:
        """Queue depth, total or for one class."""
        if rclass is None:
            return len(self._queue)
        return sum(1 for r in self._queue if r.rclass == rclass)

    def queued_descriptors(self) -> List[list]:
        """Serializable queue snapshot: ``[rclass, tag, volume,
        submitted]`` rows in submission order.  A request's execute
        closure cannot be persisted, so ``repro.persist`` checkpoints
        these descriptors and recovery reconstructs the work they
        describe (or drops it, counted) from them."""
        return [[r.rclass, r.tag, r.volume, r.submitted]
                for r in sorted(self._queue, key=lambda r: r.seq)]

    @property
    def active_class(self) -> str:
        """The request class of the tertiary I/O now in flight, which
        picks its retry budget: the innermost class entered with
        :meth:`running`, else the innermost one executing through the
        facade, else ``demand`` (ad-hoc I/O is treated as demand)."""
        if self._running:
            return self._running[-1]
        return self._active_classes[-1] if self._active_classes \
            else CLASS_DEMAND

    @contextmanager
    def running(self, rclass: str) -> Iterator[None]:
        """Run the enclosed work as ``rclass`` (repair, scrub and
        cross-shard moves enter ``repair``).  The entered class wins over
        the facade class of a demand fetch or write-out nested inside;
        no in-flight count or gauge changes."""
        self._running.append(rclass)
        try:
            yield
        finally:
            self._running.pop()

    # -- the back-end facade (the HL007 choke point) -----------------------------

    def fetch(self, actor: Actor, tsegno: int, disk_segno: int,
              rclass: str = CLASS_DEMAND) -> None:
        """Copy a tertiary segment into a cache line (demand priority).

        Demand fetches are never queued — the faulting application is
        asleep on the block — so this runs immediately; its only queueing
        cost is the fixed kernel hand-off the service process charges.
        """
        volume = self.volume_id(tsegno)
        self._begin(rclass)
        start = actor.time
        try:
            self.ioserver.fetch(actor, tsegno, disk_segno)
        finally:
            self._end(rclass)
        self.current_volume = volume
        obs.histogram("sched_service_seconds",
                      "back-end service time per scheduler request",
                      ("rclass",)).labels(rclass=rclass).observe(
                          actor.time - start)

    def writeout_steps(self, actor: Actor, disk_segno: int,
                       tsegno: int) -> Iterator[None]:
        """Copy a staged line out to tertiary (generator, one yield per
        raw-disk chunk).  ``EndOfMedium`` propagates to the caller."""
        self._begin(CLASS_WRITEOUT)
        start = actor.time
        try:
            yield from self.ioserver.writeout_steps(actor, disk_segno,
                                                    tsegno)
        finally:
            self._end(CLASS_WRITEOUT)
            self.current_volume = self.volume_id(tsegno)
            obs.histogram("sched_service_seconds",
                          "back-end service time per scheduler request",
                          ("rclass",)).labels(
                              rclass=CLASS_WRITEOUT).observe(
                                  actor.time - start)

    def read_segment(self, actor: Actor, tsegno: int) -> bytes:
        """Whole-segment tertiary read (the cleaner's bulk scan path).

        The read is charged to the ``footprint_read`` Table 4 category —
        the raw back-end call leaves it uncharged, and the partition
        invariant requires every facade operation to land somewhere.
        """
        self._begin(CLASS_CLEANER)
        t0 = actor.time
        try:
            image = self.ioserver.read_segment_image(actor, tsegno)
        finally:
            self.ioserver.account.charge(CAT_FOOTPRINT_READ,
                                         actor.time - t0)
            self._end(CLASS_CLEANER)
        self.current_volume = self.volume_id(tsegno)
        obs.histogram("sched_service_seconds",
                      "back-end service time per scheduler request",
                      ("rclass",)).labels(rclass=CLASS_CLEANER).observe(
                          actor.time - t0)
        return image

    # -- submission --------------------------------------------------------------

    def submit_prefetch(self, actor: Actor, tsegno: int) -> bool:
        """Prefetch ``tsegno`` as a background request.

        Returns False when the caller should stop issuing prefetches
        (cache famine in passthrough mode, admission reject when
        scheduled).  In passthrough mode this reproduces the service
        process's historical inline behaviour on the prefetch actor.
        """
        if self.mode == MODE_PASSTHROUGH:
            worker = self.prefetch_actor
            worker.sleep_until(actor.time)
            return self._prefetch_now(worker, tsegno, drop_on_famine=False)

        def execute(worker: Actor) -> None:
            self._prefetch_now(worker, tsegno, drop_on_famine=True)

        return self._enqueue(Request(
            CLASS_PREFETCH, execute, actor.time, self._next_seq(),
            volume=self.volume_id(tsegno), tag=tsegno, table4=True))

    def _prefetch_now(self, worker: Actor, tsegno: int,
                      drop_on_famine: bool) -> bool:
        fs = self.fs
        if fs.cache.contains(tsegno):
            return True
        try:
            line = fs.cache.acquire_line(worker)
        except MigrationError:
            if drop_on_famine:
                obs.counter("sched_prefetch_dropped_total",
                            "scheduled prefetches dropped at dispatch "
                            "(cache famine)").inc()
            return False
        self.fetch(worker, tsegno, line, rclass=CLASS_PREFETCH)
        fs.cache.register(tsegno, line, worker)
        return True

    def submit_writeout(self, actor: Actor, tsegno: int) -> bool:
        """Write a staged line out, now or batched.

        Write-outs are never rejected — a staged segment pins a cache
        line until it reaches tertiary storage — so overflowing the
        queue-depth limit force-drains the oldest pending write-out
        instead (the delayed-writeout policy's depth bound, §5.4).
        """
        if self.mode == MODE_PASSTHROUGH:
            self.fs.service.writeout_line(actor, tsegno)
            return True

        def execute(worker: Actor) -> None:
            if not self.fs.cache.is_staging(tsegno):
                # Already copied out: a cache ejection (or a forced
                # drain) flushed the line synchronously while this
                # request sat queued.
                obs.counter("sched_stale_writeouts_total",
                            "queued write-outs whose line was already "
                            "copied out at dispatch").inc()
                return
            self.fs.service.writeout_line(worker, tsegno)

        limit = self.queue_limits.get(CLASS_WRITEOUT)
        while limit is not None and self.queued(CLASS_WRITEOUT) >= limit:
            oldest = min((r for r in self._queue
                          if r.rclass == CLASS_WRITEOUT),
                         key=lambda r: r.seq)
            self._remove(oldest)
            self.forced_writeouts += 1
            obs.counter("sched_forced_writeouts_total",
                        "write-outs force-drained by queue-depth "
                        "pressure").inc()
            self._dispatch(oldest, actor)
        self._enqueue(Request(
            CLASS_WRITEOUT, execute, actor.time, self._next_seq(),
            volume=self.volume_id(tsegno), tag=tsegno, table4=True),
            admitted=True)
        return True

    def submit(self, rclass: str, actor: Actor,
               execute: Callable[[Actor], None], *,
               volume: Optional[int] = None, tag: object = None,
               table4: bool = False) -> bool:
        """Submit an arbitrary request (the cleaner's path; tests).

        Demand-class requests, and every request in passthrough mode,
        execute immediately on the submitting actor — strictly FIFO.
        """
        if rclass not in PRIORITY:
            raise ValueError(f"unknown request class {rclass!r}")
        if rclass == CLASS_DEMAND or self.mode == MODE_PASSTHROUGH:
            execute(actor)
            return True
        return self._enqueue(Request(rclass, execute, actor.time,
                                     self._next_seq(), volume=volume,
                                     tag=tag, table4=table4))

    # -- queue mechanics ---------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _enqueue(self, req: Request, admitted: bool = False) -> bool:
        if not admitted:
            limit = self.queue_limits.get(req.rclass)
            if limit is not None and self.queued(req.rclass) >= limit:
                self.admission_rejects[req.rclass] += 1
                obs.counter("sched_admission_rejects_total",
                            "background requests rejected by queue-depth "
                            "limits", ("rclass",)).labels(
                                rclass=req.rclass).inc()
                return False
        self._queue.append(req)
        obs.counter("sched_requests_total",
                    "requests accepted into the scheduler queue",
                    ("rclass",)).labels(rclass=req.rclass).inc()
        self._depth_gauge(req.rclass)
        return True

    def _remove(self, req: Request) -> None:
        self._queue.remove(req)
        self._depth_gauge(req.rclass)

    def _depth_gauge(self, rclass: str) -> None:
        obs.gauge("sched_queue_depth",
                  "queued scheduler requests per class",
                  ("rclass",)).labels(rclass=rclass).set(
                      self.queued(rclass))

    def _begin(self, rclass: str) -> None:
        self._active_classes.append(rclass)
        self.in_flight[rclass] += 1
        if self.in_flight[rclass] > self.max_in_flight[rclass]:
            self.max_in_flight[rclass] = self.in_flight[rclass]
        obs.gauge("sched_in_flight",
                  "scheduler requests currently executing per class",
                  ("rclass",)).labels(rclass=rclass).set(
                      self.in_flight[rclass])

    def _end(self, rclass: str) -> None:
        # Interleaved generators may unwind out of order: drop the last
        # occurrence rather than assuming strict nesting.
        for i in range(len(self._active_classes) - 1, -1, -1):
            if self._active_classes[i] == rclass:
                del self._active_classes[i]
                break
        self.in_flight[rclass] -= 1
        obs.gauge("sched_in_flight",
                  "scheduler requests currently executing per class",
                  ("rclass",)).labels(rclass=rclass).set(
                      self.in_flight[rclass])

    def volume_id(self, tsegno: int) -> int:
        vol, _seg = self.fs.aspace.volume_of(tsegno)
        return self.fs.tsegfile.volumes[vol].volume_id

    def _has_inflight_room(self, rclass: str) -> bool:
        limit = INFLIGHT_LIMITS.get(rclass)
        return limit is None or self.in_flight[rclass] < limit

    # -- dispatch ----------------------------------------------------------------

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        """Dispatch queued requests on ``actor``; returns the count."""
        dispatched = 0
        while self._queue and (limit is None or dispatched < limit):
            req = self._pick_next(actor.time)
            if req is None:
                break  # every queued class is at its in-flight limit
            self._remove(req)
            self._dispatch(req, actor)
            dispatched += 1
        return dispatched

    def _pick_next(self, now: float) -> Optional[Request]:
        """Mount-batching elevator with aging and in-flight gating."""
        eligible = [r for r in self._queue
                    if self._has_inflight_room(r.rclass)]
        if not eligible:
            return None
        aged = [r for r in eligible
                if now - r.submitted >= self.aging_threshold]
        if aged:
            req = min(aged, key=lambda r: (r.submitted, r.seq))
            self.aged_promotions += 1
            obs.counter("sched_aged_promotions_total",
                        "starved requests promoted past the batch "
                        "order").inc()
            self._note_batch_volume(req.volume)
            return req
        if self.current_volume is not None:
            local = [r for r in eligible
                     if r.volume is None or r.volume == self.current_volume]
            if local and (self._batch_served < self.max_batch_residency
                          or len(local) == len(eligible)):
                self._batch_served += 1
                return min(local,
                           key=lambda r: (PRIORITY[r.rclass], r.seq))
        volumes = sorted({r.volume for r in eligible
                          if r.volume is not None})
        if not volumes:
            # Only volume-agnostic work left: plain priority order.
            self._batch_served += 1
            return min(eligible, key=lambda r: (PRIORITY[r.rclass], r.seq))
        cur = self.current_volume
        nxt = next((v for v in volumes if cur is None or v > cur),
                   volumes[0])
        self._note_batch_volume(nxt)
        batch = [r for r in eligible if r.volume in (None, nxt)]
        self._batch_served = 1
        return min(batch, key=lambda r: (PRIORITY[r.rclass], r.seq))

    def _note_batch_volume(self, volume: Optional[int]) -> None:
        if volume is None or volume == self.current_volume:
            return
        self.current_volume = volume
        self._batch_served = 0
        self.volume_switches += 1
        obs.counter("sched_volume_switches_total",
                    "times the elevator moved the batch to a new "
                    "volume").inc()

    def _dispatch(self, req: Request, actor: Actor) -> None:
        """Execute one queued request, charging its wait to ``queuing``
        and assert-checking the Table 4 partition."""
        actor.sleep_until(req.submitted)
        req.start = actor.time
        req.wait = req.start - req.submitted
        account = self.ioserver.account
        before = account.total()
        account.charge(CAT_QUEUING, req.wait)
        try:
            req.execute(actor)
        finally:
            req.service = actor.time - req.start
            req.charged = account.total() - before
            self.dispatch_log.append(req)
            obs.histogram("sched_wait_seconds",
                          "queue wait per scheduled request",
                          ("rclass",)).labels(rclass=req.rclass).observe(
                              req.wait)
            obs.event(EV_SCHED_DISPATCH, actor.time, rclass=req.rclass,
                      tag=str(req.tag), volume=req.volume, wait=req.wait,
                      service=req.service, actor=actor.name)
        if req.table4 and abs(req.charged - (req.wait + req.service)) \
                > _ACCT_EPSILON:
            raise AccountingViolation(
                f"{req.rclass} request {req.tag!r}: charged "
                f"{req.charged:.9f}s but wait+service is "
                f"{req.wait + req.service:.9f}s — some virtual second "
                f"escaped the Table 4 categories")
