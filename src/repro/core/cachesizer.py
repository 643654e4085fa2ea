"""Dynamic segment-cache sizing (paper §10).

"The cache size is currently fixed statically at file system creation
time.  A worthwhile investigation would study different dynamic policies
for allocating disk space between on-disk and cached segments."

:class:`AdaptiveCacheSizer` is one such policy: it watches the demand-miss
rate and the clean-segment headroom, growing the cache line limit while
misses are frequent and headroom is comfortable, and shrinking it (giving
lines back to the log) when the log is starved for clean segments.
"""

from __future__ import annotations

from typing import Optional



class AdaptiveCacheSizer:
    """Moves the cache/log disk split in response to observed pressure."""

    def __init__(self, fs, min_lines: int = 2,
                 max_lines: Optional[int] = None,
                 grow_step: int = 4, shrink_step: int = 4,
                 miss_rate_threshold: float = 0.25,
                 headroom_target: int = 8) -> None:
        self.fs = fs
        self.min_lines = min_lines
        self.max_lines = max_lines or fs.ifile.nsegs // 2
        self.grow_step = grow_step
        self.shrink_step = shrink_step
        self.miss_rate_threshold = miss_rate_threshold
        self.headroom_target = headroom_target
        self._last_hits = 0
        self._last_misses = 0

    def observe_and_adjust(self) -> int:
        """One control step; returns the line-limit delta applied."""
        fs = self.fs
        cache = fs.cache
        hits = cache.hits - self._last_hits
        misses = cache.misses - self._last_misses
        self._last_hits, self._last_misses = cache.hits, cache.misses
        total = hits + misses
        miss_rate = (misses / total) if total else 0.0
        headroom = fs.ifile.clean_count()
        delta = 0
        if headroom < self.headroom_target:
            # The log is starving: shrink the cache allowance (and give
            # back lines immediately if the cache is over the new limit).
            delta = -min(self.shrink_step,
                         cache.max_lines - self.min_lines)
        elif (miss_rate > self.miss_rate_threshold
              and headroom > self.headroom_target * 2
              and cache.max_lines < self.max_lines):
            delta = min(self.grow_step, self.max_lines - cache.max_lines)
        if delta:
            cache.max_lines += delta
            while len(cache) > cache.max_lines:
                if cache.surrender_line() is None:
                    break
        return delta
