"""Skewed archival access traces.

The paper's policy assumptions (§5): "file access patterns are skewed,
such that most archived data are never re-read.  However, some archived
data will be accessed, and once archived data became active again, they
will be accessed many times before becoming inactive again."

:class:`ArchivalTrace` generates exactly that shape: a Zipf-like skew
decides *which* files reactivate; a reactivated file receives a burst of
accesses; everything else sleeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass
class TraceEvent:
    """One access in the trace."""

    path: str
    offset: int
    nbytes: int
    is_write: bool
    think_time: float      # seconds of idleness before the access


class ArchivalTrace:
    """Generates burst-reactivation access traces over a set of files."""

    def __init__(self, paths: Sequence[str], file_sizes: Sequence[int],
                 burst_length: int = 8,
                 zipf_s: float = 1.2,
                 mean_think: float = 30.0,
                 write_fraction: float = 0.1,
                 seed: int = 42) -> None:
        if len(paths) != len(file_sizes):
            raise ValueError("paths and sizes must align")
        self.paths = list(paths)
        self.sizes = list(file_sizes)
        self.burst_length = burst_length
        self.zipf_s = zipf_s
        self.mean_think = mean_think
        self.write_fraction = write_fraction
        self.rng = random.Random(seed)
        # Zipf-ish popularity over files: rank r gets weight 1/r^s.
        weights = [1.0 / ((r + 1) ** zipf_s) for r in range(len(paths))]
        total = sum(weights)
        self._popularity = [w / total for w in weights]

    def _pick_file(self) -> int:
        x = self.rng.random()
        acc = 0.0
        for idx, p in enumerate(self._popularity):
            acc += p
            if x <= acc:
                return idx
        return len(self.paths) - 1

    def events(self, n_bursts: int) -> Iterator[TraceEvent]:
        """Yield ``n_bursts`` reactivation bursts of accesses."""
        for _ in range(n_bursts):
            idx = self._pick_file()
            path, size = self.paths[idx], self.sizes[idx]
            think = self.rng.expovariate(1.0 / self.mean_think)
            burst = max(1, int(self.rng.expovariate(1.0 / self.burst_length)))
            for b in range(burst):
                nbytes = min(size, 64 * 1024)
                offset = 0 if size <= nbytes else self.rng.randrange(
                    0, size - nbytes)
                yield TraceEvent(
                    path=path, offset=offset, nbytes=nbytes,
                    is_write=self.rng.random() < self.write_fraction,
                    think_time=think if b == 0 else 0.5)

    def replay(self, fs, actor, n_bursts: int) -> int:
        """Run the trace against a filesystem; returns accesses issued."""
        count = 0
        for ev in self.events(n_bursts):
            actor.sleep(ev.think_time)
            inum = fs.lookup(ev.path, actor)
            if ev.is_write:
                fs.write(inum, ev.offset, b"u" * ev.nbytes, actor)
            else:
                fs.read(inum, ev.offset, ev.nbytes, actor)
            count += 1
        return count
