"""Simulated block devices with calibrated timing models.

The paper's testbed (HP 9000/370, DEC RZ57/RZ58 SCSI disks, an HP-IB
HP7958A, and an HP 6300 magneto-optic autochanger) is replaced by
data-bearing device simulators whose sequential rates are calibrated to the
paper's Table 5 raw measurements.  Every device charges virtual time to the
calling actor and occupies shared
:class:`~repro.sim.resources.TimelineResource` objects (SCSI bus, disk
arm, robot picker) so cross-actor contention emerges the same way it did
on the real hardware.
"""

from repro.blockdev.base import BlockDevice, DeviceStats, CPUModel
from repro.blockdev.bus import SCSIBus
from repro.blockdev.datapath import (ExtentRef, bytes_copied_total,
                                     count_copy)
from repro.blockdev.extent import DataStore, ExtentStore
from repro.blockdev.geometry import DiskProfile, seek_time
from repro.blockdev.disk import DiskDevice
from repro.blockdev.mo import MOPlatter, MODrive
from repro.blockdev.tape import TapeVolume, TapeDrive
from repro.blockdev.jukebox import Jukebox
from repro.blockdev.striped import ConcatDevice
from repro.blockdev import profiles

__all__ = [
    "BlockDevice", "DataStore", "DeviceStats", "CPUModel",
    "ExtentRef", "ExtentStore",
    "bytes_copied_total", "count_copy",
    "SCSIBus",
    "DiskProfile", "seek_time",
    "DiskDevice",
    "MOPlatter", "MODrive",
    "TapeVolume", "TapeDrive",
    "Jukebox",
    "ConcatDevice",
    "profiles",
]
