"""Checkpoint capture, dual-slot commit, and recovery replay.

:class:`PersistManager` attaches to an assembled HighLight stack the
same way :class:`repro.faults.recovery.FaultManager` does: constructing
it over the filesystem sets ``fs.persist``, anchors the slot area and
starts the CRC ledger (the replica catalogue is read from
``fs.replicas``, volume health from the stack's ``fs.health``).  From
then on every
``fs.checkpoint()`` appends a persistence checkpoint right after the
LFS superblock write, and
``fs.recover()`` after a remount replays the newest valid image and
reconciles it with what roll-forward rebuilt.

The capture/commit split is deliberate: :meth:`_mark` is a pure
capture — it reads system state into a
:class:`~repro.persist.format.PersistImage` and mutates nothing — and
:meth:`_commit` makes that image durable.  Any state mutation between
the two would persist a system image that never existed, so both are
private and their one caller, :meth:`on_checkpoint`, runs them as one
expression: no statement can sit between them.

Epoch semantics: a persistence image carries the serial of the LFS
checkpoint it was captured under.  Recovery trusts the LFS log for
filesystem state (superblock checkpoint + roll-forward to the last
complete partial segment — the *durable epoch*) and the persistence
image for everything the log does not record; an image older than the
mounted superblock checkpoint (crash between the two writes) is used
for its registries but its cache map is only advisory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.faults.health import VolumeHealth
from repro.lfs.constants import BLOCK_SIZE
from repro.persist.format import (SEC_CACHEMAP, SEC_COUNTERS, SEC_CRC_LEDGER,
                                  SEC_EPOCH, SEC_HEALTH, SEC_REPLICAS,
                                  SEC_SCHED, SLOT_BASES, SLOT_BLOCKS,
                                  PersistFormatError, PersistImage,
                                  decode_slot, encode_slot, peek_serial)
from repro.persist.scrub import Scrubber, SegmentCRCLedger
from repro.sched.scheduler import CLASS_WRITEOUT
from repro.sim.actor import Actor

EV_CHECKPOINT_MARK = obs.register_event_type("checkpoint_mark")
EV_CHECKPOINT_WRITE = obs.register_event_type("checkpoint_write")
EV_RECOVERY_REPLAY = obs.register_event_type("recovery_replay")

#: Counter families worth carrying across restarts: the cumulative
#: operational history of the archive, as opposed to per-run scratch.
PRESERVED_COUNTER_PREFIXES = (
    "footprint_", "ioserver_", "service_", "segcache_", "robot_",
    "repair_", "replica_", "degraded_", "scrub_", "checkpoint_",
    "volume_quarantined_",
)


@dataclass
class RecoveryReport:
    """What :meth:`PersistManager.recover` found and did."""

    found: bool = False
    serial: int = 0
    stale: bool = False
    requeued_writeouts: int = 0
    dropped_requests: int = 0
    indoubt_volumes: List[int] = field(default_factory=list)
    counters_restored: int = 0
    ledger_entries: int = 0
    replicas_restored: int = 0
    cachemap_divergence: int = 0
    notes: List[str] = field(default_factory=list)


class PersistManager:
    """Owns the persistence checkpoint area of one HighLight filesystem."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self.health = fs.health
        self.ledger = SegmentCRCLedger(fs.sb.blocks_per_seg, BLOCK_SIZE)
        self._writes = obs.counter(
            "checkpoint_writes_total", "persistence checkpoints written")
        self._payload_bytes = obs.gauge(
            "checkpoint_payload_bytes",
            "encoded size of the latest persistence checkpoint")
        self._invalid = obs.counter(
            "persist_slot_invalid_total",
            "persistence slots rejected by validation")
        fs.persist = self
        fs.sb.persist_root = SLOT_BASES[0]
        fs.footprint.write_observers.append(self.ledger.observe_write)

    def make_scrubber(self) -> Scrubber:
        return Scrubber(self.fs, self.ledger)

    # -- capture (the checkpoint mark: pure, no state mutation) -------------

    def _mark(self, actor: Actor) -> PersistImage:
        """Capture the live system image under the current LFS epoch."""
        fs = self.fs
        ckpt = fs.sb.latest_checkpoint()
        health_rows = [[vid,
                        self.health.health_of(vid).value,
                        self.health.errors.get(vid, 0),
                        self.health.quarantine_reasons.get(vid, "")]
                       for vid in sorted(self.health.jukebox.volumes)]
        catalog = []
        if fs.replicas is not None:
            catalog = [[tsegno, sorted(map(list, places))]
                       for tsegno, places
                       in sorted(fs.replicas.catalog.items())]
        sections = {
            SEC_EPOCH: {"serial": ckpt.serial,
                        "timestamp": ckpt.timestamp,
                        "log_daddr": ckpt.log_daddr},
            SEC_CACHEMAP: [[tsegno, disk_segno, int(staging)]
                           for tsegno, disk_segno, staging
                           in fs.cache.entries()],
            SEC_HEALTH: health_rows,
            SEC_SCHED: fs.sched.queued_descriptors(),
            SEC_COUNTERS: obs.metrics().counter_samples(
                PRESERVED_COUNTER_PREFIXES),
            SEC_REPLICAS: catalog,
            SEC_CRC_LEDGER: self.ledger.entries(),
        }
        obs.event(EV_CHECKPOINT_MARK, actor.time, serial=ckpt.serial)
        return PersistImage(serial=ckpt.serial, sections=sections)

    # -- commit (durable write) ---------------------------------------------

    def _target_slot(self, actor: Actor) -> int:
        """Index of the slot to overwrite: blank/corrupt first, else the
        one holding the older serial (alternating-slot discipline)."""
        serials = []
        for base in SLOT_BASES:
            raw = self.fs.dev_read(actor, base, 1)
            serials.append(peek_serial(raw))
        for idx, serial in enumerate(serials):
            if serial is None:
                return idx
        return 0 if serials[0] <= serials[1] else 1

    def _commit(self, actor: Actor, image: PersistImage) -> None:
        """Write ``image`` into the older slot, under device accounting."""
        raw = encode_slot(image)
        slot = self._target_slot(actor)
        self.fs.dev_write(actor, SLOT_BASES[slot], raw)
        self._writes.inc()
        self._payload_bytes.set(float(len(raw.rstrip(b"\0"))))
        obs.event(EV_CHECKPOINT_WRITE, actor.time, serial=image.serial,
                  slot=slot)

    def on_checkpoint(self, actor: Actor) -> None:
        """Append a persistence checkpoint (called by ``fs.checkpoint``)."""
        self._commit(actor, self._mark(actor))

    # -- recovery -----------------------------------------------------------

    def load_newest(self, actor: Actor) -> Optional[PersistImage]:
        """The valid slot image with the highest serial, if any."""
        best: Optional[PersistImage] = None
        for base in SLOT_BASES:
            raw = self.fs.dev_read(actor, base, SLOT_BLOCKS)
            try:
                image = decode_slot(raw)
            except PersistFormatError:
                self._invalid.inc()
                continue
            if image is not None and (best is None
                                      or image.serial > best.serial):
                best = image
        return best

    def recover(self, actor: Optional[Actor] = None) -> RecoveryReport:
        """Replay the newest valid image and reconcile with the log.

        Runs after :meth:`~repro.core.highlight.HighLightFS
        .mount_highlight` (which already rolled the LFS forward to the
        last durable epoch and rebuilt the cache directory from the
        ifile).  Restores the registries the log does not record, marks
        volumes with in-flight write-outs at crash time DEGRADED
        (in-doubt until scrub or repair clears them), and re-submits
        write-outs for surviving staging lines — those lines hold the
        only durable copy of acknowledged data.
        """
        fs = self.fs
        actor = actor or fs.actor
        report = RecoveryReport()
        obs.counter("recovery_runs_total", "recovery replays started").inc()
        image = self.load_newest(actor)
        sched_rows: List[list] = []
        if image is not None:
            report.found = True
            report.serial = image.serial
            sb_serial = fs.sb.latest_checkpoint().serial
            report.stale = image.serial < sb_serial
            if report.stale:
                report.notes.append(
                    f"persistence epoch {image.serial} predates superblock "
                    f"epoch {sb_serial}; registries restored, cache map "
                    f"advisory only")
            sections = image.sections
            report.counters_restored = self._restore_counters(
                sections.get(SEC_COUNTERS, []))
            self._restore_health(sections.get(SEC_HEALTH, []))
            report.replicas_restored = self._restore_replicas(
                sections.get(SEC_REPLICAS, []))
            ledger_rows = sections.get(SEC_CRC_LEDGER, [])
            self.ledger.load(ledger_rows)
            report.ledger_entries = len(ledger_rows)
            sched_rows = sections.get(SEC_SCHED, [])
            if not report.stale:
                report.cachemap_divergence = self._check_cachemap(
                    sections.get(SEC_CACHEMAP, []), report)

        self._resync_full_volumes()
        staging = self._reconcile_staging(actor, report, sched_rows)
        obs.counter("recovery_requeued_writeouts_total",
                    "staging-line write-outs re-submitted by recovery"
                    ).inc(report.requeued_writeouts)
        obs.counter("recovery_dropped_requests_total",
                    "persisted scheduler requests dropped by recovery"
                    ).inc(report.dropped_requests)
        obs.event(EV_RECOVERY_REPLAY, actor.time, serial=report.serial,
                  found=report.found, stale=report.stale,
                  requeued=report.requeued_writeouts,
                  dropped=report.dropped_requests,
                  indoubt=len(report.indoubt_volumes),
                  staging_lines=len(staging))
        return report

    # -- recovery internals -------------------------------------------------

    def _restore_counters(self, rows: List[list]) -> int:
        reg = obs.metrics()
        restored = 0
        for name, labelnames, labelvalues, value in rows:
            reg.restore_counter_sample(name, labelnames, labelvalues, value)
            restored += 1
        return restored

    def _restore_health(self, rows: List[list]) -> None:
        """Reinstate persisted health states without re-emitting the
        original quarantine events (history, not new transitions)."""
        jukebox = self.health.jukebox
        for vid, state, errors, reason in rows:
            vol = jukebox.volumes.get(vid)
            if vol is None:
                continue
            vol.health = VolumeHealth(state)
            if errors:
                self.health.errors[vid] = errors
            if reason:
                self.health.quarantine_reasons[vid] = reason

    def _restore_replicas(self, rows: List[list]) -> int:
        replicas = self.fs.replicas
        if replicas is None or not rows:
            return 0
        for tsegno, places in rows:
            replicas.catalog[tsegno] = [tuple(p) for p in places]
        return len(rows)

    def _check_cachemap(self, rows: List[list],
                        report: RecoveryReport) -> int:
        """Cross-check the persisted cache map against the directory the
        mount rebuilt from the ifile (the ifile is authoritative)."""
        persisted = {(t, d) for t, d, _staging in rows}
        rebuilt = {(t, d) for t, d, _s in self.fs.cache.entries()}
        divergence = len(persisted ^ rebuilt)
        if divergence:
            report.notes.append(
                f"cache map divergence: {divergence} line(s) differ from "
                f"the ifile rebuild")
            obs.counter("recovery_cachemap_divergence_total",
                        "cache-map entries differing between the "
                        "persisted image and the ifile rebuild"
                        ).inc(divergence)
        return divergence

    def _resync_full_volumes(self) -> None:
        """The tsegfile's full flags are on-media truth; push them back
        onto the (freshly rebuilt, all-empty) volume objects."""
        for meta in self.fs.tsegfile.volumes:
            if meta.marked_full:
                self.fs.footprint.mark_full(meta.volume_id)

    def _reconcile_staging(self, actor: Actor, report: RecoveryReport,
                           sched_rows: List[list]) -> List[int]:
        """Staging lines hold the sole copy of acknowledged data: their
        target volumes are in-doubt (DEGRADED) and their write-outs are
        re-submitted.  Persisted queue entries that no longer correspond
        to a staging line — prefetches, cleaner reads, already-flushed
        write-outs — are dropped and counted."""
        fs = self.fs
        staging = sorted(t for t, _d, s in fs.cache.entries() if s)
        for tsegno in staging:
            vid = fs.sched.volume_id(tsegno)
            if vid is not None and vid not in report.indoubt_volumes \
                    and self.health.health_of(vid).serving:
                report.indoubt_volumes.append(vid)
                self.health.record_error(vid, actor.time, kind="in_doubt")
                obs.counter("recovery_indoubt_volumes_total",
                            "volumes marked in-doubt by recovery").inc()
        for row in sched_rows:
            rclass, tag = row[0], row[1]
            if rclass != CLASS_WRITEOUT or tag not in staging:
                report.dropped_requests += 1
        # Requeue every surviving staging line, persisted descriptor or
        # not — the ifile outlives the persistence image.
        for tsegno in staging:
            fs.sched.submit_writeout(actor, tsegno)
            report.requeued_writeouts += 1
        return staging
