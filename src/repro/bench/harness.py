"""Testbed construction matching the paper's §7 configuration.

"The tests ran on an HP 9000/370 CPU with 32 MB of main memory (with
3.2 MB of buffer cache) running 4.4BSD-Alpha.  HighLight had a DEC RZ57
SCSI disk drive ... occupying an 848MB partition.  The tertiary storage
device was a SCSI-attached HP 6300 magneto-optic changer with two drives
and 32 cartridges.  One drive was allocated for the currently-active
writing segment ... the tests constrained HighLight's use of each platter
to 40MB."
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.blockdev import profiles
from repro.blockdev.bus import SCSIBus
from repro.blockdev.disk import DiskDevice
from repro.blockdev.geometry import DiskProfile
from repro.blockdev.jukebox import Jukebox
from repro.blockdev.striped import ConcatDevice
from repro.core.highlight import HighLightConfig, HighLightFS
from repro.core.migrator import Migrator
from repro.ffs.filesystem import FFS, FFSConfig
from repro.footprint.robot import JukeboxFootprint
from repro.lfs.filesystem import LFS, LFSConfig
from repro.sim.actor import Actor
from repro.util.units import MB

PARTITION_BYTES = 848 * MB
PLATTER_CONSTRAINT = 40 * MB


@dataclass
class Testbed:
    """One assembled paper-testbed instance."""

    bus: SCSIBus
    app: Actor
    disks: List[DiskDevice] = field(default_factory=list)
    jukebox: Optional[Jukebox] = None
    footprint: Optional[JukeboxFootprint] = None
    fs: object = None
    migrator: Optional[Migrator] = None

    @property
    def disk(self) -> DiskDevice:
        return self.disks[0]


def _fresh_bus() -> SCSIBus:
    return SCSIBus("scsi0")


def make_ffs(partition_bytes: int = PARTITION_BYTES) -> Testbed:
    """Plain 4.4BSD-Alpha FFS with read/write clustering."""
    bus = _fresh_bus()
    disk = profiles.make_disk(profiles.RZ57, bus=bus,
                              capacity_bytes=partition_bytes)
    app = Actor("app")
    fs = FFS.mkfs(disk, FFSConfig(), profiles.make_cpu(), actor=app)
    return Testbed(bus=bus, app=app, disks=[disk], fs=fs)


def make_lfs(partition_bytes: int = PARTITION_BYTES) -> Testbed:
    """The basic 4.4BSD LFS."""
    bus = _fresh_bus()
    disk = profiles.make_disk(profiles.RZ57, bus=bus,
                              capacity_bytes=partition_bytes)
    app = Actor("app")
    fs = LFS.mkfs(disk, LFSConfig(), profiles.make_cpu(), actor=app)
    return Testbed(bus=bus, app=app, disks=[disk], fs=fs)


def make_highlight(partition_bytes: int = PARTITION_BYTES,
                   staging_profile: Optional[DiskProfile] = None,
                   n_platters: int = 32,
                   platter_constraint: int = PLATTER_CONSTRAINT,
                   config: Optional[HighLightConfig] = None) -> Testbed:
    """HighLight over the RZ57 partition and the HP 6300 changer.

    ``staging_profile`` adds a second spindle concatenated after the RZ57
    and steers cache/staging lines onto it (Table 6's RZ58 / HP7958A
    columns).
    """
    config = config or HighLightConfig()
    bus = _fresh_bus()
    disks = [profiles.make_disk(profiles.RZ57, bus=bus,
                                capacity_bytes=partition_bytes)]
    if staging_profile is not None:
        disks.append(profiles.make_disk(staging_profile, bus=bus))
    jukebox = profiles.make_hp6300(
        n_platters=n_platters, bus=bus,
        effective_platter_bytes=platter_constraint)
    footprint = JukeboxFootprint(jukebox)
    app = Actor("app")
    if staging_profile is not None:
        # Cache/staging lines live on the second spindle: its segments are
        # the high end of the concatenated address range.
        config.cache_prefer_high = True
    device: object = (disks[0] if len(disks) == 1
                      else ConcatDevice("diskfarm", disks))
    fs = HighLightFS.mkfs_highlight(device, footprint, config,
                                    profiles.make_cpu(), actor=app)
    migrator = Migrator(fs)
    return Testbed(bus=bus, app=app, disks=disks, jukebox=jukebox,
                   footprint=footprint, fs=fs, migrator=migrator)


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
    from repro.obs.report import write_snapshot
    out_dir = out_dir or os.environ.get(OBS_DIR_ENV) or DEFAULT_OBS_DIR
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    path = os.path.join(out_dir, f"{safe}.json")
    write_snapshot(path, header=header)
    return path


def preload_write_volume(bed: Testbed) -> None:
    """Put the first platter in a drive and pin the write drive, matching
    the paper's drive allocation (the tests start with the volume loaded,
    so time-to-first-byte excludes the media swap)."""
    first = bed.fs.tsegfile.volumes[0].volume_id
    bed.footprint.pin_write_drive(first)
    bed.jukebox.load(bed.app, first)
