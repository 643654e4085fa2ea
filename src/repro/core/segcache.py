"""The disk-resident segment cache for tertiary segments.

Disk segments double as cache lines holding read-only copies of
tertiary-resident segments (paper §4, Fig. 3).  Because a read-only line
never holds the sole copy of a block, it may be discarded at any time;
lines still *staging* (assembled but not yet copied out) are pinned until
the I/O server writes them to tertiary storage.

The cache directory is "a simple hash table indexed by segment number"
(§6.3) — here a dict from tertiary segno to the disk segno caching it.
The static line limit comes from the superblock's ``ncachesegs`` (§6.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import obs
from repro.core.policies.ejection import LRUEjection
from repro.errors import StagingFull
from repro.lfs.constants import UNASSIGNED
from repro.lfs.ifile import SEG_CACHED, SEG_CLEAN, SEG_STAGING
from repro.sim.actor import Actor

#: Clean segments a new cache line may never consume: the log's own
#: headroom (the cleaner needs somewhere to write).
MIN_FREE_SEGS = 2


class SegmentCache:
    """Cache directory + line lifecycle for tertiary segments on disk."""

    def __init__(self, fs, max_lines: int, ejection_policy=None) -> None:
        self.fs = fs
        self.max_lines = max_lines
        self.policy = ejection_policy or LRUEjection()
        self._dir: Dict[int, int] = {}      # tertiary segno -> disk segno
        self.hits = 0
        self.misses = 0
        self._hit_series = obs.counter(
            "segcache_hits_total", "segment cache directory hits").labels()
        self._miss_series = obs.counter(
            "segcache_misses_total",
            "segment cache directory misses").labels()
        self._ejection_series = obs.counter(
            "segcache_ejections_total",
            "read-only cache lines dropped").labels()

    def __len__(self) -> int:
        return len(self._dir)

    # -- directory ---------------------------------------------------------------

    def lookup(self, tsegno: int) -> Optional[int]:
        disk_segno = self._dir.get(tsegno)
        if disk_segno is None:
            self.misses += 1
            self._miss_series.inc()
        else:
            self.hits += 1
            self._hit_series.inc()
        return disk_segno

    def contains(self, tsegno: int) -> bool:
        return tsegno in self._dir

    def touch(self, tsegno: int) -> None:
        self.policy.on_access(tsegno)

    def lines(self) -> List[int]:
        """Cached tertiary segment numbers."""
        return list(self._dir)

    def entries(self) -> List[tuple]:
        """The full directory as sorted ``(tsegno, disk_segno, staging)``
        rows — the shape checkpointed by ``repro.persist``."""
        return [(tsegno, disk_segno, self.is_staging(tsegno))
                for tsegno, disk_segno in sorted(self._dir.items())]

    # -- insertion / removal ----------------------------------------------------------

    def register(self, tsegno: int, disk_segno: int, actor: Actor,
                 staging: bool = False) -> None:
        """Record that ``disk_segno`` now caches tertiary ``tsegno``."""
        stale = self._dir.get(tsegno)
        if stale is not None and stale != disk_segno:
            # A reclaimed-and-reallocated tertiary segment can still have
            # a line from its previous life; release it cleanly.
            old = self.fs.ifile.seguse(stale)
            old.flags = SEG_CLEAN
            old.cache_tag = UNASSIGNED
            old.live_bytes = 0
        seg = self.fs.ifile.seguse(disk_segno)
        seg.flags = SEG_CACHED | (SEG_STAGING if staging else 0)
        seg.cache_tag = tsegno
        seg.fetch_time = actor.time
        self._dir[tsegno] = disk_segno
        self.policy.on_insert(tsegno, fresh_fetch=not staging)

    def seal_staging(self, tsegno: int) -> None:
        """Staging line copied out: becomes an ordinary read-only line."""
        disk_segno = self._dir.get(tsegno)
        if disk_segno is None:
            return
        seg = self.fs.ifile.seguse(disk_segno)
        seg.flags &= ~SEG_STAGING

    def is_staging(self, tsegno: int) -> bool:
        disk_segno = self._dir.get(tsegno)
        if disk_segno is None:
            return False
        return bool(self.fs.ifile.seguse(disk_segno).flags & SEG_STAGING)

    def eject(self, tsegno: int, actor: Optional[Actor] = None
              ) -> Optional[int]:
        """Drop a read-only line; returns the freed disk segment.

        Ejecting a staging line is refused (its data has no tertiary copy
        yet) — callers must copy it out first.  ``actor`` (when known)
        supplies the virtual-clock stamp for the trace event.
        """
        if self.is_staging(tsegno):
            return None
        disk_segno = self._dir.pop(tsegno, None)
        if disk_segno is None:
            return None
        seg = self.fs.ifile.seguse(disk_segno)
        seg.flags = SEG_CLEAN
        seg.cache_tag = UNASSIGNED
        seg.live_bytes = 0
        self.policy.on_evict(tsegno)
        when = (actor or self.fs.actor).time
        self._ejection_series.inc()
        obs.event(obs.EV_CACHE_EJECT, when, tsegno=tsegno,
                  disk_segno=disk_segno)
        return disk_segno

    # -- line acquisition -----------------------------------------------------------

    def acquire_line(self, actor: Actor) -> int:
        """Find a disk segment to serve as a new cache line.

        Prefers unused cache quota (grab a clean segment); otherwise
        ejects a line chosen by the ejection policy.  This is what the
        service process does when a demand fetch arrives and "there are no
        clean segments available for that use" (paper §6.7).
        """
        if len(self._dir) < self.max_lines:
            segno = self._pick_clean_segment()
            if segno is not None:
                return segno
        victim = self.policy.choose_victim(
            [t for t in self._dir if not self.is_staging(t)])
        if victim is None:
            raise StagingFull("no ejectable cache line and no clean segment")
        freed = self.eject(victim, actor=actor)
        assert freed is not None
        return freed

    def _pick_clean_segment(self) -> Optional[int]:
        fs = self.fs
        prefer_high = getattr(fs.config, "cache_prefer_high", False)
        pick = max if prefer_high else min
        best = None
        for segno in fs.ifile.clean_segments():
            if segno == fs.cur_segno:
                continue
            best = segno if best is None else pick(best, segno)
        # Leave headroom for the log itself.
        if best is None or fs.ifile.clean_count() <= MIN_FREE_SEGS:
            return None
        return best

    def discard_staging(self, tsegno: int) -> Optional[int]:
        """Forcibly drop a staging line (end-of-medium restage path).

        Only legal once the blocks have been re-staged elsewhere; the
        normal :meth:`eject` refuses staging lines precisely because they
        hold the sole copy.
        """
        disk_segno = self._dir.pop(tsegno, None)
        if disk_segno is None:
            return None
        seg = self.fs.ifile.seguse(disk_segno)
        seg.flags = SEG_CLEAN
        seg.cache_tag = UNASSIGNED
        seg.live_bytes = 0
        self.policy.on_evict(tsegno)
        return disk_segno

    def drop(self, tsegno: int) -> Optional[int]:
        """Drop whichever kind of line holds ``tsegno``, if any: for
        callers that re-staged its live blocks or know it has none."""
        if self.is_staging(tsegno):
            return self.discard_staging(tsegno)
        return self.eject(tsegno)

    def surrender_line(self) -> Optional[int]:
        """Give one read-only line back to the log (clean-segment famine)."""
        victim = self.policy.choose_victim(
            [t for t in self._dir if not self.is_staging(t)])
        if victim is None:
            return None
        return self.eject(victim)

    # -- crash recovery ---------------------------------------------------------------

    def rebuild_from_ifile(self) -> None:
        """Reconstruct the directory from SEG_CACHED flags after a mount."""
        self._dir.clear()
        for disk_segno, seg in enumerate(self.fs.ifile.segs):
            if seg.is_cached() and seg.cache_tag != UNASSIGNED:
                self._dir[seg.cache_tag] = disk_segno
                self.policy.on_insert(seg.cache_tag, fresh_fetch=False)
