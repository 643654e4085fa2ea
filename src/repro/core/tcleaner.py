"""The tertiary volume cleaner (paper §10, "Future Work").

"To avoid eventual exhaustion of tertiary storage, HighLight will need a
tertiary cleaning mechanism that examines tertiary volumes, a task that
would best be done with at least two reader/writer devices to avoid
having to swap between the being-cleaned volume and the destination
volume."  HighLight "will eventually have a cleaner for tertiary storage
that will clean whole media at a time to minimize the media swap and seek
latencies" (§6.5).

This module implements that cleaner: it selects a consumed volume by live
fraction, streams its segments through one drive while the migrator's
staging stream (destination volume, other drive) re-homes the live
blocks, then resets the emptied volume for reuse.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.addressing import line_read
from repro.errors import InvalidArgument
from repro.lfs.constants import BLOCK_SIZE
from repro.lfs.summary import SegmentSummary
from repro.sim.actor import Actor


class TertiaryCleaner:
    """Reclaims whole tertiary volumes by re-staging their live data."""

    def __init__(self, fs, migrator, actor: Optional[Actor] = None,
                 live_fraction_threshold: float = 0.5) -> None:
        self.fs = fs
        self.migrator = migrator
        self.actor = actor or Actor("tcleaner", clock=fs.actor.clock)
        #: Volumes with more live data than this fraction of their
        #: consumed capacity are not worth cleaning yet.
        self.live_fraction_threshold = live_fraction_threshold
        self.blocks_forwarded = 0

    # -- selection -------------------------------------------------------------

    def volume_live_fraction(self, vol: int) -> float:
        """Live bytes over consumed bytes for one volume."""
        meta = self.fs.tsegfile.volumes[vol]
        consumed = meta.next_free * self.fs.config.segment_size
        if consumed == 0:
            return 1.0
        return self.fs.tsegfile.live_bytes(vol) / consumed

    def select_victim(self) -> Optional[int]:
        """The consumed volume with the lowest live fraction, if any
        qualifies.  The currently-consuming volume is never selected."""
        tseg = self.fs.tsegfile
        best: Optional[Tuple[float, int]] = None
        for vol, meta in enumerate(tseg.volumes):
            if vol == tseg.cur_volume:
                continue
            if meta.next_free == 0:
                continue  # never consumed: nothing to clean
            if not (meta.marked_full or meta.next_free >= meta.nsegs):
                continue  # still consumable: leave it to fill
            fraction = self.volume_live_fraction(vol)
            if fraction > self.live_fraction_threshold:
                continue
            if best is None or fraction < best[0]:
                best = (fraction, vol)
        return best[1] if best is not None else None

    # -- cleaning ---------------------------------------------------------------

    def clean_volume(self, vol: int) -> int:
        """Clean one whole volume; returns live blocks forwarded.

        Live blocks are re-staged through the migrator's normal staging
        stream (which consumes a *different* volume), so the second drive
        handles the destination while the first streams the victim.
        """
        fs = self.fs
        tseg = fs.tsegfile
        if vol == tseg.cur_volume:
            raise InvalidArgument("cannot clean the consuming volume")
        forwarded = 0
        for seg_in_vol in range(tseg.volumes[vol].next_free):
            use = tseg.seguse(vol, seg_in_vol)
            tsegno = fs.aspace.tertiary_segno(vol, seg_in_vol)
            if use.live_bytes <= 0:
                # Dead segment: drop any stale cache line with it.
                fs.cache.drop(tsegno)
                tseg.release_segment(vol, seg_in_vol)
                continue
            forwarded += self._clean_segment(vol, seg_in_vol)
            tseg.release_segment(vol, seg_in_vol)
        self.migrator.flush(self.actor)
        tseg.reset_volume(vol)
        self.blocks_forwarded += forwarded
        return forwarded

    def _clean_segment(self, vol: int, seg_in_vol: int) -> int:
        """Forward one tertiary segment's live blocks to the staging
        stream; mirrors the disk cleaner but reads via Footprint."""
        fs = self.fs
        tsegno = fs.aspace.tertiary_segno(vol, seg_in_vol)
        # Whole-segment read: if cached, from disk; else via Footprint
        # (without polluting the cache — this is a bulk scan).
        disk_segno = fs.cache.lookup(tsegno)
        if disk_segno is not None:
            image = line_read(fs.disk, self.actor,
                              fs.aspace.seg_base(disk_segno),
                              fs.config.blocks_per_seg, fs.aspace)
        else:
            # Cleaner-class scheduler facade: the lowest-priority
            # request class, charged to footprint_read.
            image = fs.sched.read_segment(self.actor, tsegno)
        summary = SegmentSummary.try_unpack(image[:BLOCK_SIZE],
                                            fs.config.summary_size)
        if summary is None:
            return 0
        forwarded = self.migrator.forward_segment(self.actor, tsegno,
                                                  summary, image)
        # Drop any stale cache line for the cleaned segment.
        fs.cache.drop(tsegno)
        return forwarded
