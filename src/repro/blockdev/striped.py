"""Concatenating pseudo-driver: the 'disk farm' as one block address space.

HighLight's disks "are concatenated by a device driver and used as a
single LFS file system" (paper §6.4); it also names a striping driver in
its pseudo-device inventory (§6.6).  :class:`ConcatDevice` implements
concatenation — segment N lives wholly on one spindle — which is what the
segment-granular layout actually wants, and is the variant the prototype
ran.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.blockdev.base import BlockDevice
from repro.blockdev.datapath import ExtentRef, Part, split_parts
from repro.errors import AddressError, InvalidArgument
from repro.sim.actor import Actor


class ConcatDevice(BlockDevice):
    """Several block devices glued end-to-end into one address space."""

    def __init__(self, name: str, components: Sequence[BlockDevice]) -> None:
        if not components:
            raise ValueError("ConcatDevice needs at least one component")
        block_size = components[0].block_size
        for dev in components:
            if dev.block_size != block_size:
                raise InvalidArgument(
                    "all components must share one block size")
        total = sum(dev.capacity_blocks for dev in components)
        super().__init__(name, total, block_size)
        self.components: List[BlockDevice] = list(components)
        self._bases: List[int] = []
        base = 0
        for dev in components:
            self._bases.append(base)
            base += dev.capacity_blocks

    def locate(self, blkno: int) -> Tuple[int, int]:
        """Map a global block number to (component index, local block)."""
        if blkno < 0 or blkno >= self.capacity_blocks:
            raise AddressError(
                f"block {blkno} outside concat device of "
                f"{self.capacity_blocks} blocks", blkno=blkno)
        for idx in range(len(self.components) - 1, -1, -1):
            if blkno >= self._bases[idx]:
                return idx, blkno - self._bases[idx]
        raise AssertionError("unreachable")

    def _split(self, blkno: int, nblocks: int):
        """Yield (component, local block, count) runs covering the range."""
        remaining = nblocks
        cursor = blkno
        while remaining > 0:
            idx, local = self.locate(cursor)
            dev = self.components[idx]
            run = min(remaining, dev.capacity_blocks - local)
            yield dev, local, run
            cursor += run
            remaining -= run

    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        self.store.check_range(blkno, nblocks)
        refs: List[ExtentRef] = []
        for dev, local, run in self._split(blkno, nblocks):
            refs.extend(dev.read_refs(actor, local, run))
        self.stats.record("read", nblocks * self.block_size)
        return refs

    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        nbytes = sum(map(len, parts))
        # Rounded up, so an unaligned tail reaches a store, which raises.
        nblocks = -(-nbytes // self.block_size)
        self.store.check_range(blkno, nblocks)
        rest = list(parts)
        for dev, local, run in self._split(blkno, nblocks):
            chunk, rest = split_parts(rest, run * self.block_size)
            dev.writev(actor, local, chunk)
        self.stats.record("write", nbytes)
