"""The abstract Footprint API.

HighLight sees tertiary storage as "an array of devices each holding an
array of media volumes, each of which contains an array of segments"
(paper §6.5).  Footprint exposes exactly that: volume inventory and
capacities, plus block-addressed reads and writes within a volume.  The
paper notes the interface "could be implemented by an RPC system" to put
the jukebox on another machine; the abstraction boundary here is drawn so
that would be a drop-in replacement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

from repro.blockdev.datapath import BlockIO, ExtentRef, Part
from repro.faults.health import VolumeHealth
from repro.sim.actor import Actor


@dataclass(frozen=True)
class VolumeInfo:
    """What Footprint publishes about one volume."""

    volume_id: int
    capacity_blocks: int        # nominal
    effective_capacity_blocks: int  # what the device expects to really fit
    block_size: int
    write_once: bool
    marked_full: bool
    #: Device-health state (see docs/FAULTS.md); implementations without
    #: a health model report ONLINE.
    health: VolumeHealth = VolumeHealth.ONLINE


class FootprintInterface(BlockIO, ABC):
    """Segment/block-granular access to robotic tertiary storage.

    Besides the inventory, an implementation provides one borrowed read
    and one gather write; ``read``, ``write`` and ``write_refs`` are the
    :class:`~repro.blockdev.datapath.BlockIO` adapters over them.
    """

    @abstractmethod
    def volumes(self) -> List[VolumeInfo]:
        """Inventory of all volumes this Footprint instance controls."""

    @abstractmethod
    def volume_info(self, volume_id: int) -> VolumeInfo:
        """Metadata for one volume."""

    @abstractmethod
    def read_refs(self, actor: Actor, volume_id: int, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        """Read blocks from a volume as borrowed ranges, loading it into
        a drive if needed."""

    @abstractmethod
    def writev(self, actor: Actor, volume_id: int, blkno: int,
               parts: Sequence[Part]) -> None:
        """Gather-write blocks to a volume.

        Raises :class:`repro.errors.EndOfMedium` if the volume fills; the
        caller (HighLight's I/O server) marks the volume full and re-issues
        the segment on the next volume.
        """

    @abstractmethod
    def mark_full(self, volume_id: int) -> None:
        """Record that a volume hit end-of-medium."""

    @abstractmethod
    def pin_write_drive(self, volume_id: int) -> None:
        """Dedicate a drive to the currently-active writing volume.

        Mirrors the paper's test configuration: "one drive was allocated
        for the currently-active writing segment, and the other for
        reading other platters."
        """
