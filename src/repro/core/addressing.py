"""The uniform block address space and the block-map pseudo-driver.

Paper §6.3 and Fig. 4: block addresses are (segment number, offset) pairs
in a single 32-bit space of 4 KB blocks.  Disks sit at the bottom
(starting at block 0, with the boot-block shift); tertiary volumes are
assigned from the top of the space downward — the end of the first volume
is at the largest usable block number — with a dead zone in between.
Accessing the dead zone is an error.  One segment of address space is
unusable because of the out-of-band "-1" and the boot-block shift.

The :class:`BlockMapDriver` is the paper's block-map pseudo-device: it
"compares the address with a table of component sizes and dispatches to
the underlying device holding the desired block" — the concatenated disk
driver, the on-disk segment cache, or (via a demand fetch through the
service process) a tertiary volume.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.blockdev.base import BlockDevice, CPUModel
from repro.blockdev.datapath import (BlockIO, ExtentRef, Part,
                                     materialize_refs, ref_of, split_parts)
from repro.errors import AddressError, InvalidArgument
from repro.lfs.constants import BLOCK_SIZE, BLOCKS_PER_SEG, RESERVED_BLOCKS
from repro.sim.actor import Actor

#: Total 32-bit block address space, in segments.
TOTAL_SEGS_32BIT = (1 << 32) // BLOCKS_PER_SEG


class AddressSpace:
    """Maps the unified block/segment address space onto devices."""

    def __init__(self, disk_nsegs: int, volume_seg_counts: List[int],
                 blocks_per_seg: int = BLOCKS_PER_SEG,
                 total_segs: Optional[int] = None) -> None:
        if disk_nsegs <= 0:
            raise InvalidArgument("need at least one disk segment")
        self.blocks_per_seg = blocks_per_seg
        if total_segs is None:
            # However segments are sized, the space is 32 bits of blocks.
            total_segs = (1 << 32) // blocks_per_seg
        self.total_segs = total_segs
        self.disk_nsegs = disk_nsegs
        self.volume_seg_counts = list(volume_seg_counts)
        # The top segment is unusable: the -1 sentinel plus the boot-block
        # shift render it unaddressable (paper §6.3).
        self._top = total_segs - 1
        self._vol_start: List[int] = []
        cursor = self._top
        for count in self.volume_seg_counts:
            cursor -= count
            self._vol_start.append(cursor)
        if cursor <= disk_nsegs:
            raise InvalidArgument(
                "tertiary volumes collide with disk segments "
                "(address space exhausted)")

    # -- classification --------------------------------------------------------

    @property
    def dead_zone(self) -> Tuple[int, int]:
        """Half-open segment range [lo, hi) with no backing device."""
        lo = self.disk_nsegs
        hi = self._vol_start[-1] if self._vol_start else self._top
        return lo, hi

    def is_disk_segno(self, segno: int) -> bool:
        return 0 <= segno < self.disk_nsegs

    def is_tertiary_segno(self, segno: int) -> bool:
        lo, hi = self.dead_zone
        return hi <= segno < self._top

    def is_dead_segno(self, segno: int) -> bool:
        lo, hi = self.dead_zone
        return lo <= segno < hi

    # -- segment <-> block address ---------------------------------------------

    def seg_base(self, segno: int) -> int:
        """First block address of a segment (disk segments carry the
        boot-block shift; tertiary segments map linearly)."""
        if self.is_disk_segno(segno):
            return RESERVED_BLOCKS + segno * self.blocks_per_seg
        return segno * self.blocks_per_seg

    def segno_of(self, daddr: int) -> int:
        disk_limit = RESERVED_BLOCKS + self.disk_nsegs * self.blocks_per_seg
        if daddr < disk_limit:
            if daddr < RESERVED_BLOCKS:
                raise AddressError(f"block {daddr} is in the boot area")
            return (daddr - RESERVED_BLOCKS) // self.blocks_per_seg
        return daddr // self.blocks_per_seg

    def is_disk_daddr(self, daddr: int) -> bool:
        return self.is_disk_segno(self.segno_of(daddr))

    def check(self, daddr: int) -> None:
        """Raise AddressError for dead-zone or out-of-space addresses."""
        segno = self.segno_of(daddr)
        if self.is_dead_segno(segno):
            raise AddressError(
                f"block {daddr} (segment {segno}) is in the dead zone")
        if segno >= self._top:
            raise AddressError(f"block {daddr} is in the unusable top segment")

    # -- tertiary volume mapping --------------------------------------------------

    def volume_of(self, segno: int) -> Tuple[int, int]:
        """Map a tertiary segment number to (volume index, seg in volume)."""
        if not self.is_tertiary_segno(segno):
            raise AddressError(f"segment {segno} is not tertiary")
        for vol, start in enumerate(self._vol_start):
            count = self.volume_seg_counts[vol]
            if start <= segno < start + count:
                return vol, segno - start
        raise AddressError(f"segment {segno} maps to no volume")

    def tertiary_segno(self, vol: int, seg_in_vol: int) -> int:
        if not 0 <= vol < len(self.volume_seg_counts):
            raise AddressError(f"no volume index {vol}")
        if not 0 <= seg_in_vol < self.volume_seg_counts[vol]:
            raise AddressError(
                f"segment {seg_in_vol} out of range for volume {vol}")
        return self._vol_start[vol] + seg_in_vol

    # -- growth (paper §6.3: claim part of the dead zone) -------------------------

    def add_volume(self, seg_count: int) -> int:
        """Append a tertiary volume; returns its volume index."""
        cursor = (self._vol_start[-1] if self._vol_start else self._top)
        start = cursor - seg_count
        if start <= self.disk_nsegs:
            raise AddressError("dead zone too small for the new volume")
        self.volume_seg_counts.append(seg_count)
        self._vol_start.append(start)
        return len(self.volume_seg_counts) - 1

    def grow_disk(self, extra_segs: int) -> None:
        """Extend the disk region upward into the dead zone."""
        lo, hi = self.dead_zone
        if self.disk_nsegs + extra_segs > hi:
            raise AddressError("dead zone too small for the added disk")
        self.disk_nsegs += extra_segs


def _check_disk_range(aspace: AddressSpace, daddr: int, nblocks: int) -> None:
    """Raise AddressError unless [daddr, daddr+nblocks) is disk-backed."""
    if nblocks <= 0:
        raise InvalidArgument(f"nblocks must be positive, got {nblocks}")
    if not (aspace.is_disk_daddr(daddr)
            and aspace.is_disk_daddr(daddr + nblocks - 1)):
        raise AddressError(
            f"line I/O [{daddr}, {daddr + nblocks}) leaves the disk "
            f"region of the address space")


def line_read_refs(disk: BlockDevice, actor: Actor, daddr: int, nblocks: int,
                   aspace: Optional[AddressSpace] = None) -> List[ExtentRef]:
    """The sanctioned raw-disk read path for cache/staging lines.

    Paper §6.7: the I/O server accesses the on-disk cache "directly via
    a character (raw) pseudo-device" to avoid buffer-cache copies; the
    migrator, cleaners, and replica manager share that path.  Routing
    every such access through here keeps raw line I/O in one auditable
    place (the HL002 static-analysis invariant) and, when an
    :class:`AddressSpace` is supplied, verifies the transfer stays
    inside the disk region — a pure arithmetic check that charges no
    virtual time, so timing is identical to a direct device call.
    """
    if aspace is not None:
        _check_disk_range(aspace, daddr, nblocks)
    return disk.read_refs(actor, daddr, nblocks)


def line_writev(disk: BlockDevice, actor: Actor, daddr: int,
                parts: Sequence[Part],
                aspace: Optional[AddressSpace] = None) -> None:
    """The sanctioned raw-disk write path for cache/staging lines.

    Counterpart of :func:`line_read_refs`.  The disk store applies its
    copy rule to ``parts``: refs are adopted, so the caller must not
    mutate the referenced ranges after the call.
    """
    if aspace is not None:
        nbytes = sum(map(len, parts))
        nblocks = max(1, (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE)
        _check_disk_range(aspace, daddr, nblocks)
    disk.writev(actor, daddr, parts)


def line_read(disk: BlockDevice, actor: Actor, daddr: int, nblocks: int,
              aspace: Optional[AddressSpace] = None) -> bytes:
    """:func:`line_read_refs` joined into one image."""
    return materialize_refs(line_read_refs(disk, actor, daddr, nblocks,
                                           aspace))


class BlockMapDriver(BlockIO):
    """Dispatches unified-space I/O to disk, segment cache, or tertiary.

    Reads of tertiary addresses hit the segment cache; a miss triggers a
    demand fetch through the service process, after which the read is
    satisfied from the cached copy on disk — the faulting actor pays for
    the whole excursion, like a process sleeping on block I/O.
    """

    def __init__(self, aspace: AddressSpace, disk: BlockDevice,
                 cpu: Optional[CPUModel] = None,
                 lookup_overhead: float = 0.0002) -> None:
        self.aspace = aspace
        self.disk = disk
        self.cpu = cpu
        #: Per-operation cost of the block-map indirection + cache hash
        #: lookup (the "slightly modified system structures" of §7.1).
        self.lookup_overhead = lookup_overhead
        #: Wired up by HighLightFS after construction.
        self.cache = None
        self.service = None

    # -- helpers ----------------------------------------------------------------

    def _charge_lookup(self, actor: Actor) -> None:
        if self.lookup_overhead:
            actor.sleep(self.lookup_overhead)

    def _split_by_segment(self, daddr: int, nblocks: int):
        """Split a block range at segment boundaries (tertiary side)."""
        bps = self.aspace.blocks_per_seg
        cursor = daddr
        remaining = nblocks
        while remaining > 0:
            segno = self.aspace.segno_of(cursor)
            base = self.aspace.seg_base(segno)
            run = min(remaining, base + bps - cursor)
            yield segno, cursor - base, run
            cursor += run
            remaining -= run

    # -- I/O ---------------------------------------------------------------------

    def read_refs(self, actor: Actor, daddr: int,
                  nblocks: int) -> List[ExtentRef]:
        self._charge_lookup(actor)
        if daddr < RESERVED_BLOCKS:  # boot blocks / superblock area
            return self.disk.read_refs(actor, daddr, nblocks)
        self.aspace.check(daddr)
        if self.aspace.is_disk_daddr(daddr):
            return self.disk.read_refs(actor, daddr, nblocks)
        return [ref_of(self._read_tertiary(actor, segno, offset, run))
                for segno, offset, run
                in self._split_by_segment(daddr, nblocks)]

    def _read_tertiary(self, actor: Actor, segno: int, offset: int,
                       nblocks: int) -> bytes:
        disk_segno = self.cache.lookup(segno)
        missed = disk_segno is None
        if missed:
            if self.service is None:
                raise AddressError(
                    f"tertiary segment {segno} not cached and no service "
                    "process is running")
            disk_segno = self.service.demand_fetch(actor, segno)
        self.cache.touch(segno)
        line_base = self.aspace.seg_base(disk_segno)
        # The one joined image of the cache-line read is kept on purpose:
        # the copy ledger's pinned records count it (ROADMAP item 5).
        data = self.disk.read(actor, line_base + offset, nblocks)
        if missed and self.service is not None:
            # Prefetch launches only after the faulting read completes.
            self.service.after_miss(actor, segno)
        return data

    def writev(self, actor: Actor, daddr: int, parts: Sequence[Part]) -> None:
        self._charge_lookup(actor)
        if daddr < RESERVED_BLOCKS:  # boot blocks / superblock area
            self.disk.writev(actor, daddr, parts)
            return
        self.aspace.check(daddr)
        if self.aspace.is_disk_daddr(daddr):
            self.disk.writev(actor, daddr, parts)
            return
        # Writes to tertiary addresses are only legal against a cached
        # (staging) line; fresh tertiary segments are assembled on disk
        # and copied out by the I/O server (paper §6.2).
        # Rounded up, so an unaligned tail reaches the store, which raises.
        nblocks = -(-sum(map(len, parts)) // BLOCK_SIZE)
        rest = list(parts)
        for segno, offset, run in self._split_by_segment(daddr, nblocks):
            disk_segno = self.cache.lookup(segno)
            if disk_segno is None:
                raise AddressError(
                    f"write to uncached tertiary segment {segno}")
            chunk, rest = split_parts(rest, run * BLOCK_SIZE)
            self.disk.writev(actor, self.aspace.seg_base(disk_segno) + offset,
                             chunk)
