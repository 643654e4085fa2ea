"""The one stack builder: the paper's §7 testbed, assembled in one place.

"The tests ran on an HP 9000/370 CPU with 32 MB of main memory (with
3.2 MB of buffer cache) running 4.4BSD-Alpha.  HighLight had a DEC RZ57
SCSI disk drive ... occupying an 848MB partition.  The tertiary storage
device was a SCSI-attached HP 6300 magneto-optic changer with two drives
and 32 cartridges.  One drive was allocated for the currently-active
writing segment ... the tests constrained HighLight's use of each platter
to 40MB."

Every single-node HighLight stack in the repo — bench beds, cluster
shards, the crash harness's restarts, examples — comes from here, in two
halves: :func:`make_farm` builds the devices (bus, disks, jukebox,
Footprint) and :func:`make_highlight` / :func:`remount` put a filesystem
and its migrator on them.  Optional components (replicas, faults,
persistence, rearranger, policy-driven migrators) attach *after* the
call by construction (DESIGN.md "Assembling a stack"), so the builder
needs no per-component flag.
"""

from __future__ import annotations

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
from repro.footprint.robot import JukeboxFootprint
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

    @property
    def device(self):
        """The disk farm as the filesystem sees it: the RZ57 alone, or
        every spindle concatenated."""
        if len(self.disks) == 1:
            return self.disks[0]
        return ConcatDevice("diskfarm", self.disks)


def make_farm(partition_bytes: int = PARTITION_BYTES,
              staging_profile: Optional[DiskProfile] = None,
              n_platters: int = 32,
              platter_constraint: int = PLATTER_CONSTRAINT,
              actor: Optional[Actor] = None) -> Testbed:
    """The device half of a testbed: an RZ57 partition (plus an optional
    staging spindle) and the HP 6300 changer on one SCSI bus, with no
    filesystem yet."""
    bus = SCSIBus("scsi0")
    disks = [profiles.make_disk(profiles.RZ57, bus=bus,
                                capacity_bytes=partition_bytes)]
    if staging_profile is not None:
        disks.append(profiles.make_disk(staging_profile, bus=bus))
    jukebox = profiles.make_hp6300(
        n_platters=n_platters, bus=bus,
        effective_platter_bytes=platter_constraint)
    return Testbed(bus=bus, app=actor or Actor("app"), disks=disks,
                   jukebox=jukebox, footprint=JukeboxFootprint(jukebox))


def make_highlight(partition_bytes: int = PARTITION_BYTES,
                   staging_profile: Optional[DiskProfile] = None,
                   n_platters: int = 32,
                   platter_constraint: int = PLATTER_CONSTRAINT,
                   config: Optional[HighLightConfig] = None,
                   actor: Optional[Actor] = None) -> Testbed:
    """HighLight over the RZ57 partition and the HP 6300 changer.

    ``staging_profile`` adds a second spindle concatenated after the RZ57
    and steers cache/staging lines onto it (Table 6's RZ58 / HP7958A
    columns).  ``actor`` is the stack's timeline (default: a fresh
    ``"app"`` actor).
    """
    config = config or HighLightConfig()
    bed = make_farm(partition_bytes, staging_profile, n_platters,
                    platter_constraint, actor)
    if staging_profile is not None:
        # Cache/staging lines live on the second spindle: its segments are
        # the high end of the concatenated address range.
        config.cache_prefer_high = True
    bed.fs = HighLightFS.mkfs_highlight(bed.device, bed.footprint, config,
                                        profiles.make_cpu(), actor=bed.app)
    bed.migrator = Migrator(bed.fs)
    return bed


def remount(bed: Testbed, config: Optional[HighLightConfig] = None
            ) -> Testbed:
    """Mount the filesystem on ``bed``'s media afresh: everything in
    memory, the cache directory included, is rebuilt from the devices.

    Returns a new testbed over the same devices whose ``app`` is the
    mounted filesystem's own timeline, with a fresh migrator.
    """
    fs = HighLightFS.mount_highlight(bed.device, bed.footprint, config)
    return Testbed(bus=bed.bus, app=fs.actor, disks=bed.disks,
                   jukebox=bed.jukebox, footprint=bed.footprint, fs=fs,
                   migrator=Migrator(fs))


def preload_write_volume(bed: Testbed) -> None:
    """Put the first platter in a drive and pin the write drive, matching
    the paper's drive allocation (the tests start with the volume loaded,
    so time-to-first-byte excludes the media swap)."""
    first = bed.fs.tsegfile.volumes[0].volume_id
    bed.footprint.pin_write_drive(first)
    bed.jukebox.load(bed.app, first)
