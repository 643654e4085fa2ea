"""Testbed construction matching the paper's §7 configuration.

The HighLight stack itself is built by :mod:`repro.core.stack` (which
quotes the paper's testbed); this module re-exports it and adds the
FFS/LFS baselines of Tables 2-3 on the same RZ57 partition.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.blockdev import profiles
from repro.blockdev.bus import SCSIBus
from repro.core.stack import (PARTITION_BYTES, Testbed, make_highlight,
                              preload_write_volume)
from repro.ffs.filesystem import FFS
from repro.lfs.filesystem import LFS, LFSConfig
from repro.obs.report import write_snapshot
from repro.sim.actor import Actor

__all__ = ["Testbed", "make_ffs", "make_lfs", "make_highlight",
           "preload_write_volume", "dump_observability"]


def make_ffs(partition_bytes: int = PARTITION_BYTES) -> Testbed:
    """Plain 4.4BSD-Alpha FFS with read/write clustering."""
    bus = SCSIBus("scsi0")
    disk = profiles.make_disk(profiles.RZ57, bus=bus,
                              capacity_bytes=partition_bytes)
    app = Actor("app")
    fs = FFS.mkfs(disk, profiles.make_cpu(), actor=app)
    return Testbed(bus=bus, app=app, disks=[disk], fs=fs)


def make_lfs(partition_bytes: int = PARTITION_BYTES) -> Testbed:
    """The basic 4.4BSD LFS."""
    bus = SCSIBus("scsi0")
    disk = profiles.make_disk(profiles.RZ57, bus=bus,
                              capacity_bytes=partition_bytes)
    app = Actor("app")
    fs = LFS.mkfs(disk, LFSConfig(), profiles.make_cpu(), actor=app)
    return Testbed(bus=bus, app=app, disks=[disk], fs=fs)


OBS_DIR_ENV = "REPRO_OBS_DIR"
DEFAULT_OBS_DIR = "obs-snapshots"


def dump_observability(name: str, out_dir: Optional[str] = None,
                       header: Optional[dict] = None) -> str:
    """Write the current metrics + trace snapshot for benchmark ``name``.

    The destination directory comes from ``out_dir``, else the
    ``REPRO_OBS_DIR`` environment variable, else ``obs-snapshots/`` under
    the working directory.  ``header`` (run provenance: scenario, seed,
    quick flag) is recorded at the top of the snapshot.  Returns the
    path written.
    """
    out_dir = out_dir or os.environ.get(OBS_DIR_ENV) or DEFAULT_OBS_DIR
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    path = os.path.join(out_dir, f"{safe}.json")
    write_snapshot(path, header=header)
    return path
