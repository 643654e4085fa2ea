"""FFS block allocation: cylinder groups with contiguous cluster runs.

"FFS tries to allocate file blocks to fill up a contiguous 16-block area
on disk, so that it can perform I/O operations with 64-kilobyte
transfers" (paper §7.1).  The allocator hands out blocks from the
cylinder group associated with the file's inode, preferring the block
immediately after the file's previous allocation (extending a cluster),
then a fresh cluster-aligned run, then spilling to later groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NoSpace
from repro.util.bitmap import Bitmap


class CylinderGroupAllocator:
    """Tracks free blocks and places files with cluster affinity."""

    def __init__(self, total_blocks: int, first_data_block: int,
                 group_blocks: int = 2048, cluster_blocks: int = 16,
                 maxbpg: int = 256) -> None:
        if first_data_block >= total_blocks:
            raise ValueError("no room for data blocks")
        self.total_blocks = total_blocks
        self.first_data_block = first_data_block
        self.group_blocks = group_blocks
        self.cluster_blocks = cluster_blocks
        self.map = Bitmap(total_blocks)
        for blk in range(first_data_block):
            self.map.set(blk)  # metadata area is never data-allocatable
        self.ngroups = max(
            1, (total_blocks - first_data_block) // group_blocks)
        #: FFS maxbpg: a single file may claim at most this many blocks in
        #: one cylinder group before being forced to the next group —
        #: this is why large FFS files spread across the partition.
        self.maxbpg = maxbpg
        #: Last block allocated per file, for cluster extension.
        self._last_alloc: Dict[int, int] = {}
        #: (group, count) of the file's allocations in its current group.
        self._group_usage: Dict[int, List[int]] = {}

    # -- bookkeeping -------------------------------------------------------------

    def group_of(self, blkno: int) -> int:
        return min((blkno - self.first_data_block) // self.group_blocks,
                   self.ngroups - 1)

    def group_start(self, group: int) -> int:
        return self.first_data_block + group * self.group_blocks

    # -- allocation ----------------------------------------------------------------

    def alloc(self, inum: int, hint_group: Optional[int] = None) -> int:
        """Allocate one block for ``inum``, favouring cluster contiguity."""
        usage = self._group_usage.setdefault(inum, [inum % self.ngroups, 0])
        last = self._last_alloc.get(inum)
        if (last is not None and last + 1 < self.total_blocks
                and not self.map.test(last + 1)
                and usage[1] < self.maxbpg):
            # Extend the current cluster run.
            blk = last + 1
            self.map.set(blk)
            self._last_alloc[inum] = blk
            usage[1] += 1
            return blk
        if usage[1] >= self.maxbpg:
            # maxbpg reached: force the file into the next group.
            usage[0] = (usage[0] + 1) % self.ngroups
            usage[1] = 0
            group = usage[0]
        elif hint_group is not None:
            group = hint_group
        elif last is not None:
            group = self.group_of(last)
        else:
            group = usage[0]
        blk = self._alloc_cluster_start(group)
        if blk is None:
            raise NoSpace("filesystem full")
        self.map.set(blk)
        self._last_alloc[inum] = blk
        usage[0] = self.group_of(blk)
        usage[1] += 1
        return blk

    def _alloc_cluster_start(self, group: int) -> Optional[int]:
        """A cluster-aligned free run start, searching groups round-robin."""
        for offset in range(self.ngroups):
            g = (group + offset) % self.ngroups
            start = self.group_start(g)
            end = min(start + self.group_blocks, self.total_blocks)
            # Prefer the start of a whole free cluster.
            blk = start
            while blk + self.cluster_blocks <= end:
                if all(not self.map.test(blk + i)
                       for i in range(self.cluster_blocks)):
                    return blk
                blk += self.cluster_blocks
            # Fall back to any free block in the group.
            for blk in range(start, end):
                if not self.map.test(blk):
                    return blk
        return None

    def free(self, inum: int, blkno: int) -> None:
        self.map.clear(blkno)
        if self._last_alloc.get(inum) == blkno:
            del self._last_alloc[inum]
