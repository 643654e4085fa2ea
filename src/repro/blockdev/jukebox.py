"""Robotic media changers: removable volumes, drives, and the picker.

This models the HP 6300 magneto-optic autochanger (2 drives, 32
cartridges), the 600-cartridge Metrum tape unit, and the Sony WORM jukebox
from the paper's Sequoia hardware inventory.  The robot picker is a shared
timeline resource; a volume change costs :attr:`Jukebox.swap_time` (13.5 s
measured in Table 5) and — faithfully to the paper's complaint about the
simple device driver — *hogs the SCSI bus* for the whole swap unless
``hog_bus_on_swap`` is disabled.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.blockdev.base import DeviceStats
from repro.blockdev.bus import SCSIBus
from repro.blockdev.datapath import BlockIO, ExtentRef, Part
from repro.blockdev.extent import ExtentStore
from repro.errors import (DriveBusy, EndOfMedium, MediaFailure,
                          NoSuchVolume, ReadOnlyMedium, VolumeNotLoaded)
from repro.faults.health import VolumeHealth
from repro.sim.actor import Actor
from repro.sim.resources import TimelineResource
from repro.util.lru import LRUTracker


class RemovableVolume:
    """One piece of removable media: an MO platter or a tape cartridge.

    ``effective_capacity_bytes`` may be below the nominal capacity to model
    device-level compression falling short of expectations (paper §6.3) or
    the benchmarks' artificial 40 MB-per-platter constraint (§7).  Writes
    past the effective capacity raise ``EndOfMedium`` from the drive.
    """

    def __init__(self, volume_id: int, capacity_bytes: int,
                 block_size: int = 4096,
                 effective_capacity_bytes: Optional[int] = None,
                 write_once: bool = False) -> None:
        self.volume_id = volume_id
        self.store = ExtentStore(max(1, capacity_bytes // block_size),
                                 block_size)
        if effective_capacity_bytes is None:
            effective_capacity_bytes = capacity_bytes
        self.effective_capacity_blocks = max(
            1, effective_capacity_bytes // block_size)
        self.write_once = write_once
        #: Set by HighLight when the drive reports end-of-medium.
        self.marked_full = False
        #: Health state machine (see docs/FAULTS.md); QUARANTINED and
        #: RETIRED volumes raise MediaFailure on I/O.
        self.health = VolumeHealth.ONLINE

    @property
    def block_size(self) -> int:
        return self.store.block_size

    @property
    def capacity_blocks(self) -> int:
        return self.store.capacity_blocks


class Drive(BlockIO, ABC):
    """A reader/writer unit inside a jukebox."""

    def __init__(self, name: str, bus: Optional[SCSIBus] = None) -> None:
        self.name = name
        self.bus = bus
        self.loaded: Optional[RemovableVolume] = None
        self.stats = DeviceStats(device=name)
        #: A pinned drive is never chosen for eviction by the robot
        #: (the paper dedicates one MO drive to the active writing platter).
        self.pinned = False

    def require_loaded(self) -> RemovableVolume:
        if self.loaded is None:
            raise VolumeNotLoaded(f"drive {self.name} is empty")
        if not self.loaded.health.serving:
            raise MediaFailure(
                f"volume {self.loaded.volume_id} has failed "
                f"({self.loaded.health.value})",
                volume_id=self.loaded.volume_id)
        return self.loaded

    def _pre_write(self, volume: RemovableVolume, blkno: int,
                   nblocks: int) -> None:
        """Shared pre-write policy: end-of-medium, then WORM blank check."""
        if blkno + nblocks > volume.effective_capacity_blocks:
            raise EndOfMedium(
                f"volume {volume.volume_id}: write of {nblocks} blocks at "
                f"{blkno} passes effective capacity "
                f"{volume.effective_capacity_blocks}",
                volume_id=volume.volume_id, blkno=blkno)
        self._check_write(volume, blkno, nblocks)

    def _check_write(self, volume: RemovableVolume, blkno: int,
                     nblocks: int) -> None:
        if volume.write_once and \
                volume.store.written_in_range(blkno, nblocks):
            first = next(i for i in range(nblocks)
                         if volume.store.is_written(blkno + i))
            raise ReadOnlyMedium(
                f"volume {volume.volume_id} block {blkno + first} "
                "already written (WORM)",
                volume_id=volume.volume_id, blkno=blkno + first)

    @abstractmethod
    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        """Timed borrowed read from the loaded volume."""

    @abstractmethod
    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        """Timed gather write to the loaded volume."""

    def on_load(self, volume: RemovableVolume) -> None:
        """Hook: reset positioning state when media changes."""
        self.loaded = volume

    def on_unload(self) -> None:
        self.loaded = None


class Jukebox(BlockIO):
    """A robot, a set of drives, and a shelf of volumes."""

    def __init__(self, name: str, drives: Sequence[Drive],
                 volumes: Sequence[RemovableVolume],
                 swap_time: float = 13.5,
                 bus: Optional[SCSIBus] = None,
                 hog_bus_on_swap: bool = True) -> None:
        if not drives:
            raise ValueError("a jukebox needs at least one drive")
        self.name = name
        self.drives: List[Drive] = list(drives)
        self.volumes: Dict[int, RemovableVolume] = {
            v.volume_id: v for v in volumes}
        if len(self.volumes) != len(volumes):
            raise ValueError("duplicate volume ids")
        self.swap_time = swap_time
        self.bus = bus
        self.hog_bus_on_swap = hog_bus_on_swap
        self.robot = TimelineResource(f"{name}.robot")
        self.swap_count = 0
        self._drive_lru: LRUTracker[int] = LRUTracker()
        #: Optional :class:`repro.faults.FaultInjector` consulted before
        #: each actual media swap (mount-failure injection).
        self.fault_injector = None

    # -- inventory ----------------------------------------------------------

    def volume(self, volume_id: int) -> RemovableVolume:
        vol = self.volumes.get(volume_id)
        if vol is None:
            raise NoSuchVolume(f"no volume {volume_id} in {self.name}",
                               volume_id=volume_id)
        return vol

    def drive_holding(self, volume_id: int) -> Optional[int]:
        """Index of the drive holding ``volume_id``, or None."""
        for idx, drive in enumerate(self.drives):
            if drive.loaded is not None and \
                    drive.loaded.volume_id == volume_id:
                return idx
        return None

    # -- robotics -----------------------------------------------------------

    def _choose_drive(self, prefer: Optional[int]) -> int:
        if prefer is not None:
            return prefer
        for idx, drive in enumerate(self.drives):
            if drive.loaded is None and not drive.pinned:
                return idx
        for idx in self._drive_lru:
            if not self.drives[idx].pinned:
                return idx
        for idx, drive in enumerate(self.drives):
            if not drive.pinned:
                return idx
        raise DriveBusy(f"every drive in {self.name} is pinned")

    def load(self, actor: Actor, volume_id: int,
             drive_index: Optional[int] = None) -> int:
        """Ensure ``volume_id`` is in a drive; returns the drive index.

        A no-op (free of charge) if the volume is already loaded.  Otherwise
        the robot swaps media, charging :attr:`swap_time` and hogging the
        bus if the driver is the non-disconnecting kind.
        """
        held = self.drive_holding(volume_id)
        if held is not None:
            self._drive_lru.touch(held)
            return held
        self.volume(volume_id)  # existence check
        if self.fault_injector is not None:
            self.fault_injector.on_mount(actor, volume_id)
        idx = self._choose_drive(drive_index)
        drive = self.drives[idx]
        self.robot.occupy(actor, 0.0)  # serialise on the picker
        if self.hog_bus_on_swap and self.bus is not None:
            self.bus.hog(actor, self.swap_time)
            self.robot.next_free = max(self.robot.next_free, actor.time)
        else:
            self.robot.occupy(actor, self.swap_time)
        unloaded = drive.loaded.volume_id if drive.loaded is not None else None
        if drive.loaded is not None:
            drive.on_unload()
        drive.on_load(self.volumes[volume_id])
        self.swap_count += 1
        self._drive_lru.touch(idx)
        obs.counter("robot_swaps_total", "media swaps by the robot picker",
                    ("jukebox",)).labels(jukebox=self.name).inc()
        obs.event(obs.EV_VOLUME_SWITCH, actor.time, jukebox=self.name,
                  drive=drive.name, volume=volume_id, unloaded=unloaded)
        return idx

    # -- volume-addressed I/O ------------------------------------------------

    def read_refs(self, actor: Actor, volume_id: int, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        """Load (if needed) and read borrowed ranges from a volume."""
        idx = self.load(actor, volume_id)
        refs = self.drives[idx].read_refs(actor, blkno, nblocks)
        self._drive_lru.touch(idx)
        return refs

    def writev(self, actor: Actor, volume_id: int, blkno: int,
               parts: Sequence[Part]) -> None:
        """Load (if needed) and gather-write to a volume."""
        idx = self.load(actor, volume_id)
        self.drives[idx].writev(actor, blkno, parts)
        self._drive_lru.touch(idx)
