"""Rearranging tertiary segments by observed access locality (paper §5.4).

"Performance may be boosted ... by reorganizing the data layout on
tertiary storage to reflect the most prevalent access pattern(s).  This
reorganization can be accomplished by re-writing and clustering cached
segments to a new storage location on the tertiary device when
segment(s) are ejected from the cache ... A better approach might be to
rewrite segments to tertiary storage as they are read into the cache.
This is more likely to reflect true access locality."

"This policy will require additional identifying information on each
cache segment to indicate an appropriate locality of reference patterns
between segments.  Such information could be a segment fetch timestamp or
the user-id or process-id responsible for a fetch."

:class:`SegmentRearranger` implements the fetch-time variant: it records
(fetch timestamp, requesting actor) per cache fill — the paper's
annotations — groups segments fetched close together in time into
*affinity runs*, and when a run is re-fetched again later, re-stages its
segments into the migration stream so they land adjacently on the
currently-consumed volume.  The vacated tertiary segments are released.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.addressing import line_read
from repro.errors import AddressError, TertiaryExhausted
from repro.lfs.constants import BLOCK_SIZE
from repro.lfs.summary import SegmentSummary
from repro.sim.actor import Actor


@dataclass
class FetchAnnotation:
    """The §5.5 cache-fill bookkeeping: when, and on whose behalf."""

    tsegno: int
    fetch_time: float
    requester: str         # the paper's uid/pid analogue: the actor name
    refetches: int = 0


class SegmentRearranger:
    """Clusters co-accessed tertiary segments on re-write."""

    def __init__(self, fs, migrator,
                 affinity_window: float = 60.0,
                 refetch_threshold: int = 1) -> None:
        self.fs = fs
        self.migrator = migrator
        #: Fetches within this many seconds of each other are "related".
        self.affinity_window = affinity_window
        #: Re-cluster a run after this many repeat fetch cycles.
        self.refetch_threshold = refetch_threshold
        self.annotations: Dict[int, FetchAnnotation] = {}
        self._fetch_log: List[Tuple[float, int]] = []
        fs.rearranger = self

    # -- annotation (called on the service process's demand-fetch miss) -------

    def note_fetch(self, actor: Actor, tsegno: int) -> None:
        ann = self.annotations.get(tsegno)
        if ann is None:
            self.annotations[tsegno] = FetchAnnotation(
                tsegno, actor.time, actor.name)
        else:
            ann.refetches += 1
            ann.fetch_time = actor.time
            ann.requester = actor.name
        self._fetch_log.append((actor.time, tsegno))

    # -- affinity analysis ---------------------------------------------------------

    def affinity_runs(self) -> List[List[int]]:
        """Group the fetch log into runs of temporally-adjacent fetches."""
        runs: List[List[int]] = []
        current: List[int] = []
        last_time: Optional[float] = None
        for when, tsegno in sorted(self._fetch_log):
            if last_time is not None and \
                    when - last_time > self.affinity_window:
                if len(current) > 1:
                    runs.append(current)
                current = []
            if tsegno not in current:
                current.append(tsegno)
            last_time = when
        if len(current) > 1:
            runs.append(current)
        return runs

    def candidates(self) -> List[List[int]]:
        """Runs whose members were re-fetched enough to prove a pattern,
        are currently cached (cheap to re-write), and are not already
        adjacent on one volume."""
        out = []
        for run in self.affinity_runs():
            anns = [self.annotations.get(t) for t in run]
            if any(a is None or a.refetches < self.refetch_threshold
                   for a in anns):
                continue
            if not all(self.fs.cache.contains(t) for t in run):
                continue
            if self._already_clustered(run):
                continue
            out.append(run)
        return out

    def _already_clustered(self, run: List[int]) -> bool:
        try:
            locations = [self.fs.aspace.volume_of(t) for t in run]
        except AddressError:
            return False
        vols = {vol for vol, _seg in locations}
        if len(vols) > 1:
            return False
        segs = sorted(seg for _vol, seg in locations)
        return segs[-1] - segs[0] == len(segs) - 1

    # -- re-writing -------------------------------------------------------------------

    def rearrange_run(self, actor: Actor, run: List[int]) -> int:
        """Re-stage one affinity run contiguously; returns blocks moved.

        Live blocks of each segment flow through the migrator's staging
        stream (consuming the current volume in order), so the run ends
        up physically adjacent; the vacated segments are released — this
        is where the paper warns the policy "tends to increase the
        consumption of tertiary storage" until a cleaner pass.
        """
        moved = 0
        for tsegno in run:
            moved += self._restage_cached_segment(actor, tsegno)
        self.migrator.flush(actor)
        # The run's members changed identity: forget the old annotations.
        for tsegno in run:
            self.annotations.pop(tsegno, None)
        self._fetch_log = [(w, t) for w, t in self._fetch_log
                           if t not in run]
        return moved

    def _restage_cached_segment(self, actor: Actor, tsegno: int) -> int:
        fs = self.fs
        disk_segno = fs.cache.lookup(tsegno)
        if disk_segno is None:
            # Staging for an earlier run member may have evicted this
            # line; fetch it back (the paper's read-time-rewrite variant).
            disk_segno = fs.service.demand_fetch(actor, tsegno)
        line_base = fs.aspace.seg_base(disk_segno)
        image = line_read(fs.disk, actor, line_base,
                          fs.config.blocks_per_seg, fs.aspace)
        summary = SegmentSummary.try_unpack(image[:BLOCK_SIZE],
                                            fs.config.summary_size)
        if summary is None:
            return 0
        moved = self.migrator.forward_segment(actor, tsegno, summary, image)
        # Release the vacated tertiary segment and its stale cache line.
        vol, seg_in_vol = fs.aspace.volume_of(tsegno)
        fs.tsegfile.release_segment(vol, seg_in_vol)
        fs.cache.drop(tsegno)
        return moved

    def run_once(self, actor: Optional[Actor] = None) -> int:
        """Rearrange every qualifying run; returns blocks moved."""
        actor = actor or self.migrator.actor
        moved = 0
        for run in self.candidates():
            try:
                moved += self.rearrange_run(actor, run)
            except TertiaryExhausted:
                break
        return moved
