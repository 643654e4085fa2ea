"""The Stonebraker/Olson large-object benchmark (paper §7.1, Table 2).

"The large object benchmark starts with a 51.2MB file, considered a
collection of 12,500 frames of 4096 bytes each ... The buffer cache is
flushed before each operation in the benchmark."  Phases:

* read 2500 frames sequentially (10 MB);
* replace 2500 frames sequentially;
* read 250 frames randomly (uniform over all 12500);
* replace 250 frames randomly;
* read 250 frames with 80/20 locality (80% sequentially-next, 20% random);
* replace 250 frames with 80/20 locality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.actor import Actor

FRAME_SIZE = 4096
TOTAL_FRAMES = 12_500
SEQ_FRAMES = 2_500
RANDOM_FRAMES = 250


@dataclass
class PhaseResult:
    """One Table 2 row for one filesystem configuration."""

    phase: str
    seconds: float
    nbytes: int

    @property
    def throughput(self) -> float:
        """Bytes per second."""
        if self.seconds <= 0:
            return float("inf")
        return self.nbytes / self.seconds


class LargeObjectBenchmark:
    """Runs the six phases against any filesystem with the shared API."""

    def __init__(self, fs, actor: Actor, path: str = "/large.obj",
                 total_frames: int = TOTAL_FRAMES,
                 seed: int = 19930125) -> None:
        self.fs = fs
        self.actor = actor
        self.path = path
        self.total_frames = total_frames
        self.rng = random.Random(seed)
        self.inum: Optional[int] = None

    # -- setup -------------------------------------------------------------------

    def populate(self) -> None:
        """Create the object file (frame i is filled with a marker)."""
        fs, actor = self.fs, self.actor
        self.inum = fs.create(self.path, actor=actor)
        chunk_frames = 64
        frame = 0
        while frame < self.total_frames:
            n = min(chunk_frames, self.total_frames - frame)
            data = b"".join(self._frame_content(frame + i)
                            for i in range(n))
            fs.write(self.inum, frame * FRAME_SIZE, data, actor)
            frame += n
        fs.checkpoint(actor)

    @staticmethod
    def _frame_content(index: int) -> bytes:
        stamp = index.to_bytes(4, "little")
        return (stamp * (FRAME_SIZE // 4))

    def _flush(self) -> None:
        self.fs.drop_caches(self.actor)

    # -- frame operations --------------------------------------------------------

    def _read_frame(self, frame: int) -> bytes:
        return self.fs.read(self.inum, frame * FRAME_SIZE, FRAME_SIZE,
                            self.actor)

    def _write_frame(self, frame: int) -> None:
        self.fs.write(self.inum, frame * FRAME_SIZE,
                      self._frame_content(frame), self.actor)

    # -- phases -------------------------------------------------------------------

    def _timed(self, name: str, frames: List[int],
               write: bool) -> PhaseResult:
        self._flush()
        start = self.actor.time
        for frame in frames:
            if write:
                self._write_frame(frame)
            else:
                self._read_frame(frame)
        if write:
            self.fs.sync(self.actor)
        return PhaseResult(name, self.actor.time - start,
                           len(frames) * FRAME_SIZE)

    def _sequential_frames(self, count: int) -> List[int]:
        return list(range(count))

    def _random_frames(self, count: int) -> List[int]:
        return [self.rng.randrange(self.total_frames) for _ in range(count)]

    def _locality_frames(self, count: int) -> List[int]:
        """80% sequentially-next frame, 20% random next."""
        frames = []
        cur = self.rng.randrange(self.total_frames)
        for _ in range(count):
            if self.rng.random() < 0.8:
                cur = (cur + 1) % self.total_frames
            else:
                cur = self.rng.randrange(self.total_frames)
            frames.append(cur)
        return frames

    def run(self, seq_frames: int = SEQ_FRAMES,
            rand_frames: int = RANDOM_FRAMES) -> List[PhaseResult]:
        """All six phases, in the paper's order."""
        if self.inum is None:
            self.populate()
        return [
            self._timed("10MB sequential read",
                        self._sequential_frames(seq_frames), write=False),
            self._timed("10MB sequential write",
                        self._sequential_frames(seq_frames), write=True),
            self._timed("1MB random read",
                        self._random_frames(rand_frames), write=False),
            self._timed("1MB random write",
                        self._random_frames(rand_frames), write=True),
            self._timed("1MB read, 80/20 locality",
                        self._locality_frames(rand_frames), write=False),
            self._timed("1MB write, 80/20 locality",
                        self._locality_frames(rand_frames), write=True),
        ]
