"""Sub-file block-range migration (paper §5.2).

Database files are large, randomly and incompletely accessed, and
sometimes never overwritten; whole-file migration serves them poorly.
The paper proposes tracking *access ranges* within a file — one record
for a sequentially-read file, potentially one per block for a database —
so cold ranges can migrate while hot ranges stay.

:class:`AccessRangeTracker` is the "mechanism-supplied and updated records
of file access sequentiality" the paper calls for (it had "no clear
implementation strategy" in 1993 — this is ours): ranges merge when
accesses continue sequentially, split when a sub-range is re-touched, and
coalesce coarsest-first when a file exceeds its record budget, which is
exactly the dynamic-granularity tradeoff of §5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.policies.base import MigrationPolicy, MigrationUnit
from repro.sim.actor import Actor


@dataclass
class AccessRange:
    """A half-open lbn range [start, end) and its last access time."""

    start: int
    end: int
    last_access: float

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def __len__(self) -> int:
        return self.end - self.start


class AccessRangeTracker:
    """Per-file access-range records with a bounded per-file budget."""

    def __init__(self, max_records_per_file: int = 64) -> None:
        if max_records_per_file < 1:
            raise ValueError("need at least one record per file")
        self.max_records = max_records_per_file
        self._files: Dict[int, List[AccessRange]] = {}

    def record(self, inum: int, start_lbn: int, end_lbn: int,
               when: float) -> None:
        """Note an access to blocks [start_lbn, end_lbn)."""
        if end_lbn <= start_lbn:
            return
        ranges = self._files.setdefault(inum, [])
        # Carve the accessed span out of existing records.
        carved: List[AccessRange] = []
        for r in ranges:
            if not r.overlaps(start_lbn, end_lbn):
                carved.append(r)
                continue
            if r.start < start_lbn:
                carved.append(AccessRange(r.start, start_lbn, r.last_access))
            if r.end > end_lbn:
                carved.append(AccessRange(end_lbn, r.end, r.last_access))
        carved.append(AccessRange(start_lbn, end_lbn, when))
        carved.sort(key=lambda r: r.start)
        # Merge adjacent records with identical timestamps (sequential
        # reads collapse to a single record).
        merged: List[AccessRange] = []
        for r in carved:
            if (merged and merged[-1].end == r.start
                    and merged[-1].last_access == r.last_access):
                merged[-1].end = r.end
            else:
                merged.append(r)
        # Enforce the bookkeeping budget by coalescing the two adjacent
        # records whose timestamps differ least (coarser granularity,
        # smaller overhead — the §5.2 tradeoff).
        while len(merged) > self.max_records:
            best_i, best_gap = 0, float("inf")
            for i in range(len(merged) - 1):
                gap = abs(merged[i].last_access - merged[i + 1].last_access)
                if gap < best_gap:
                    best_i, best_gap = i, gap
            a, b = merged[best_i], merged[best_i + 1]
            merged[best_i] = AccessRange(a.start, b.end,
                                         max(a.last_access, b.last_access))
            del merged[best_i + 1]
        self._files[inum] = merged

    def ranges(self, inum: int) -> List[AccessRange]:
        return list(self._files.get(inum, []))

    def tracked_files(self) -> List[int]:
        return list(self._files)


class BlockRangePolicy(MigrationPolicy):
    """Migrate cold block ranges of tracked files.

    For every tracked file, ranges older than ``min_age`` are selected
    (coldest first), letting "old, unreferenced data within a file migrate
    to tertiary storage while active data in the same file remain on
    secondary storage".
    """

    def __init__(self, tracker: AccessRangeTracker, target_bytes: int,
                 min_age: float, block_size: int = 4096) -> None:
        if target_bytes <= 0:
            raise ValueError("target_bytes must be positive")
        self.tracker = tracker
        self.target_bytes = target_bytes
        self.min_age = min_age
        self.block_size = block_size

    def select(self, fs, actor: Optional[Actor] = None) -> List[MigrationUnit]:
        actor = actor or fs.actor
        now = actor.time
        candidates: List[Tuple[float, int, AccessRange]] = []
        for inum in self.tracker.tracked_files():
            for r in self.tracker.ranges(inum):
                age = now - r.last_access
                if age >= self.min_age:
                    candidates.append((age, inum, r))
        candidates.sort(key=lambda item: item[0], reverse=True)
        out: List[MigrationUnit] = []
        total = 0
        for age, inum, r in candidates:
            if total >= self.target_bytes:
                break
            out.append(MigrationUnit(
                inums=[inum], tag=(inum, r.start, r.end), score=age,
                lbn_ranges={inum: (r.start, r.end)}))
            total += len(r) * self.block_size
        return out
