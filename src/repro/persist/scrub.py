"""Background scrubbing: full-image checksums over every storage tier.

The LFS segment summary only checksums four probe bytes per block
(:func:`repro.util.checksum.cksum_blocks`) — enough to catch torn
writes, useless against silent bit-rot on media that sits on a shelf
for years.  The scrubber closes that gap:

* :class:`SegmentCRCLedger` — a full-image CRC32 per written tertiary
  segment, folded over the Footprint write path as the data goes by
  (writes on this stack are whole-segment images, so no reconstruction
  is ever needed) and persisted with every ``repro.persist`` checkpoint;
* :class:`Scrubber` — a daemon that walks the ledger at a fixed
  virtual-time rate (:data:`SCRUB_PACING`), re-reads each segment from
  its volume and each sealed cache line from the staging disk, and
  compares CRCs.  A tertiary mismatch feeds the PR 5 quarantine/repair
  path (``health.record_error(..., permanent=True)`` — the
  :class:`~repro.faults.repair.RepairDaemon` then re-homes the live
  data); a cache-line mismatch ejects the line so the next access
  demand-fetches the authoritative tertiary copy.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.core.addressing import line_read
from repro.errors import DeviceError
from repro.faults.retry import CLASS_REPAIR
from repro.sim.actor import Actor

EV_SCRUB_PASS = obs.register_event_type("scrub_pass")
EV_SCRUB_MISMATCH = obs.register_event_type("scrub_mismatch")

#: Virtual seconds charged before each segment verification (the scrub
#: rate); the medium reads themselves are charged by the devices.
SCRUB_PACING = 0.25


def image_crc(data) -> int:
    """CRC32 of a full segment image (bytes or memoryview)."""
    return zlib.crc32(data) & 0xFFFFFFFF


class SegmentCRCLedger:
    """Full-image CRC32 per written tertiary segment location.

    Keyed by ``(volume_id, seg_in_vol)`` — replica copies get their own
    entries.  Fed as a Footprint write observer
    (:attr:`repro.footprint.robot.JukeboxFootprint.write_observers`):
    every successful whole-segment write records its CRC; a torn or
    failed write records nothing, which is exactly what lets the
    scrubber find the damage later.
    """

    def __init__(self, blocks_per_seg: int, block_size: int) -> None:
        self.blocks_per_seg = blocks_per_seg
        self.block_size = block_size
        self._crcs: Dict[Tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._crcs)

    def get(self, volume_id: int, seg_in_vol: int) -> Optional[int]:
        return self._crcs.get((volume_id, seg_in_vol))

    def observe_write(self, volume_id: int, blkno: int, refs) -> None:
        """Footprint write observer: fold a successful write's CRC in.

        ``refs`` is the write's :class:`~repro.blockdev.datapath
        .ExtentRef` list.  Only an exactly segment-aligned, segment-sized
        write yields a ledger entry; any other shape invalidates the
        entries it touches (no such writes occur on the current stack,
        but a stale CRC must never outlive the bytes it described).
        """
        nbytes = sum(r.nbytes for r in refs)
        nblocks = nbytes // self.block_size
        seg, offset = divmod(blkno, self.blocks_per_seg)
        if offset == 0 and nblocks == self.blocks_per_seg:
            crc = 0
            for r in refs:
                crc = zlib.crc32(r.view(), crc)
            self._crcs[(volume_id, seg)] = crc & 0xFFFFFFFF
            return
        last_seg = (blkno + max(nblocks, 1) - 1) // self.blocks_per_seg
        for s in range(seg, last_seg + 1):
            self._crcs.pop((volume_id, s), None)

    # -- persistence --------------------------------------------------------

    def entries(self) -> List[List[int]]:
        """JSON-encodable dump: sorted ``[volume_id, seg_in_vol, crc]``."""
        return [[vid, seg, crc]
                for (vid, seg), crc in sorted(self._crcs.items())]

    def load(self, entries: Iterable[Iterable[int]]) -> None:
        self._crcs = {(vid, seg): crc for vid, seg, crc in entries}


class Scrubber:
    """Walks the CRC ledger verifying live segments across all tiers,
    charging volume health to the stack's ``fs.health``."""

    def __init__(self, fs, ledger: SegmentCRCLedger) -> None:
        self.fs = fs
        self.ledger = ledger
        self.health = fs.health
        self._verified = obs.counter(
            "scrub_segments_verified_total",
            "segment images whose scrub CRC matched", ("tier",))
        self._mismatches = obs.counter(
            "scrub_mismatches_total",
            "segment images failing scrub CRC verification", ("tier",))
        self._skipped = obs.counter(
            "scrub_segments_skipped_total",
            "ledger entries skipped (volume not serving, stale cursor)")
        self._cycles = obs.counter(
            "scrub_cycles_total", "completed scrub cycles")

    # -- geometry helpers ---------------------------------------------------

    def _vol_index(self, volume_id: int) -> Optional[int]:
        for idx, meta in enumerate(self.fs.tsegfile.volumes):
            if meta.volume_id == volume_id:
                return idx
        return None

    def _primary_location(self, tsegno: int) -> Tuple[int, int]:
        vol, seg_in_vol = self.fs.aspace.volume_of(tsegno)
        return self.fs.tsegfile.volumes[vol].volume_id, seg_in_vol

    # -- verification -------------------------------------------------------

    def _verify_tertiary(self, actor: Actor, volume_id: int,
                         seg_in_vol: int, expected: int) -> bool:
        fs = self.fs
        bps = fs.aspace.blocks_per_seg
        try:
            with fs.sched.running(CLASS_REPAIR):
                image = fs.footprint.read(actor, volume_id,
                                          seg_in_vol * bps, bps)
        except DeviceError:
            # The read itself failed; with a retry policy attached it has
            # already fed the health registry, nothing left to add here.
            self._skipped.inc()
            return False
        if image_crc(image) == expected:
            self._verified.labels(tier="tertiary").inc()
            self.health.record_success(volume_id)
            return True
        self._mismatches.labels(tier="tertiary").inc()
        obs.event(EV_SCRUB_MISMATCH, actor.time, tier="tertiary",
                  volume=volume_id, seg=seg_in_vol)
        self.health.record_error(volume_id, actor.time, permanent=True,
                                 kind="checksum_mismatch")
        return False

    def _verify_cache_line(self, actor: Actor, tsegno: int,
                           disk_segno: int, expected: int) -> bool:
        fs = self.fs
        bps = fs.aspace.blocks_per_seg
        image = line_read(fs.device, actor, fs.seg_base(disk_segno), bps,
                          fs.aspace)
        if image_crc(image) == expected:
            self._verified.labels(tier="cache").inc()
            return True
        self._mismatches.labels(tier="cache").inc()
        obs.event(EV_SCRUB_MISMATCH, actor.time, tier="cache",
                  volume=tsegno, seg=disk_segno)
        # The disk copy rotted but the tertiary copy is authoritative:
        # drop the line so the next access demand-fetches clean bytes.
        fs.cache.eject(tsegno, actor)
        return False

    def run_cycle(self, actor: Actor) -> Dict[str, int]:
        """One full scrub pass over every live ledger entry.

        Returns ``{"verified": n, "mismatches": n, "skipped": n}``.
        """
        fs = self.fs
        report = {"verified": 0, "mismatches": 0, "skipped": 0}
        for vid, seg_in_vol, expected in self.ledger.entries():
            vol = self._vol_index(vid)
            if vol is None \
                    or seg_in_vol >= fs.tsegfile.volumes[vol].next_free:
                report["skipped"] += 1
                self._skipped.inc()
                continue
            if not self.health.health_of(vid).serving:
                report["skipped"] += 1
                self._skipped.inc()
                continue
            actor.sleep(SCRUB_PACING)
            if self._verify_tertiary(actor, vid, seg_in_vol, expected):
                report["verified"] += 1
            else:
                report["mismatches"] += 1
        for tsegno, disk_segno, staging in fs.cache.entries():
            if staging:
                continue  # not yet on tertiary: no reference CRC
            vid, seg_in_vol = self._primary_location(tsegno)
            expected = self.ledger.get(vid, seg_in_vol)
            if expected is None:
                report["skipped"] += 1
                self._skipped.inc()
                continue
            actor.sleep(SCRUB_PACING)
            if self._verify_cache_line(actor, tsegno, disk_segno, expected):
                report["verified"] += 1
            else:
                report["mismatches"] += 1
        self._cycles.inc()
        obs.event(EV_SCRUB_PASS, actor.time, **report)
        return report
