"""Policy plumbing: file inventory collection and the policy interface.

Policies are user-level code (the paper's migrator embodies them, §6.7):
they walk the namespace — which BSD allows without perturbing access
times (§5.3) — rank candidates, and hand the mechanism a list of
migration units.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lfs.constants import UNASSIGNED
from repro.sim.actor import Actor


@dataclass
class FileFacts:
    """Attributes a policy ranks on (all available from the base LFS)."""

    inum: int
    path: str
    size: int
    atime: float
    mtime: float
    is_dir: bool
    #: True if at least the file's first mapped block is disk-resident
    #: (cheap probe for "not already migrated").
    disk_resident: bool


@dataclass
class MigrationUnit:
    """A policy's output: files (or block ranges) to migrate together.

    Files in one unit are staged consecutively, so they cluster into the
    same tertiary segment stream — the paper's namespace-locality layout.
    ``tag`` identifies the unit in the migrator's hint table for
    unit-granular prefetch on a later cache miss.
    """

    inums: List[int]
    tag: object = None
    score: float = 0.0
    #: inum -> (first lbn, last lbn + 1) for sub-file migration; whole
    #: files are migrated when an inum has no entry.
    lbn_ranges: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.inums:
            raise ValueError("a migration unit needs at least one file")


def collect_file_facts(fs, actor: Optional[Actor] = None,
                       root: str = "/",
                       include_dirs: bool = False) -> List[FileFacts]:
    """Walk the tree collecting ranking inputs, without touching atimes."""
    actor = actor or fs.actor
    pinned = fs.pinned_inums
    facts: List[FileFacts] = []
    stack = [(root.rstrip("/") or "/", fs.lookup(root, actor))]
    while stack:
        path, inum = stack.pop()
        if inum in pinned:
            continue  # special files always remain on disk (paper §6.4)
        ino = fs.get_inode(inum, actor)
        if ino.is_dir():
            if include_dirs and path != "/":
                facts.append(_facts_for(fs, actor, path, ino))
            for name in fs.readdir(path, actor):
                child = path.rstrip("/") + "/" + name
                stack.append((child, fs.lookup(child, actor)))
        else:
            facts.append(_facts_for(fs, actor, path, ino))
    return facts


def _facts_for(fs, actor: Actor, path: str, ino) -> FileFacts:
    resident = False
    if ino.size > 0:
        daddr = fs.bmap(ino, 0, actor)
        if daddr != UNASSIGNED:
            resident = fs.aspace.is_disk_daddr(daddr) if hasattr(
                fs, "aspace") else True
    return FileFacts(inum=ino.inum, path=path, size=ino.size,
                     atime=ino.atime, mtime=ino.mtime,
                     is_dir=ino.is_dir(), disk_resident=resident)


class MigrationPolicy(ABC):
    """Chooses what to migrate; the mechanism does the moving."""

    @abstractmethod
    def select(self, fs, actor: Optional[Actor] = None) -> List[MigrationUnit]:
        """Return migration units in priority order."""

    @staticmethod
    def take_until(ranked: List[Tuple[float, FileFacts]],
                   target_bytes: int) -> List[FileFacts]:
        """Greedy prefix of a descending-scored ranking filling a byte goal."""
        chosen: List[FileFacts] = []
        total = 0
        for _score, facts in ranked:
            if total >= target_bytes:
                break
            chosen.append(facts)
            total += facts.size
        return chosen
