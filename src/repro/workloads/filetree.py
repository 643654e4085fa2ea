"""Synthetic namespace trees.

The namespace-locality policy (§5.3) is motivated by "software development
environments" where whole subtrees are accessed at nearly the same time;
these helpers build such trees deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.sim.actor import Actor


@dataclass
class TreeSpec:
    """Shape of a synthetic project tree."""

    units: int = 8                     # top-level subtrees ("projects")
    files_per_unit: int = 12
    subdirs_per_unit: int = 2
    mean_file_bytes: int = 64 * 1024
    size_jitter: float = 0.5           # +- fraction of the mean
    seed: int = 1993


def build_tree(fs, actor: Actor, root: str, spec: TreeSpec,
               fill: bool = True) -> Dict[str, List[str]]:
    """Create the tree; returns unit path -> list of file paths."""
    rng = random.Random(spec.seed)
    out: Dict[str, List[str]] = {}
    fs.mkdir(root, actor)
    for u in range(spec.units):
        unit = f"{root}/unit{u:03d}"
        fs.mkdir(unit, actor)
        files: List[str] = []
        dirs = [unit]
        for d in range(spec.subdirs_per_unit):
            sub = f"{unit}/sub{d}"
            fs.mkdir(sub, actor)
            dirs.append(sub)
        for i in range(spec.files_per_unit):
            parent = dirs[i % len(dirs)]
            path = f"{parent}/file{i:03d}.dat"
            size = max(1, int(spec.mean_file_bytes
                              * (1 + spec.size_jitter * (2 * rng.random() - 1))))
            if fill:
                payload = rng.randbytes(size)
                fs.write_path(path, payload, actor=actor)
            else:
                fs.create(path, actor=actor)
            files.append(path)
        out[unit] = files
    fs.checkpoint(actor)
    return out
