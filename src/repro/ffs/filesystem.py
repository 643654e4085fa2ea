"""The FFS baseline filesystem: the UFS layer over an update-in-place
layout.

Reads, writes and the namespace are the UFS layer LFS uses
(:mod:`repro.lfs.ufs`); this module supplies only where blocks live —
the inode table, the cylinder-group allocator, the block map and the
elevator flush.  See the package docstring for what is deliberately
simplified.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.blockdev.base import BlockDevice, CPUModel
from repro.errors import InvalidArgument
from repro.lfs.constants import BLOCK_SIZE, ROOT_INUM, UNASSIGNED
from repro.lfs.directory import Directory
from repro.lfs.inode import (Inode, INODE_SIZE, INODES_PER_BLOCK, S_IFDIR,
                             find_inode_in_block)
from repro.lfs.ufs import BCACHE_BYTES, CLUSTER_BLOCKS, UFS, UFSStats
from repro.ffs.allocator import CylinderGroupAllocator
from repro.sim.actor import Actor

#: Blocks of inode table (2048 inodes), after the superblock analogue.
INODE_TABLE_BLOCKS = 64
#: Blocks per cylinder group.
GROUP_BLOCKS = 2048


class FFS(UFS):
    """An update-in-place filesystem with clustering, as a baseline."""

    def __init__(self, device: BlockDevice,
                 cpu: Optional[CPUModel] = None,
                 actor: Optional[Actor] = None) -> None:
        super().__init__(device, cpu, actor or Actor("ffs-kernel"),
                         BCACHE_BYTES, UFSStats())
        self._inode_table_start = 1  # block 0 is the superblock analogue
        self.allocator = CylinderGroupAllocator(
            device.capacity_blocks,
            first_data_block=self._inode_table_start + INODE_TABLE_BLOCKS,
            group_blocks=GROUP_BLOCKS, cluster_blocks=CLUSTER_BLOCKS)
        #: inum -> {lbn: daddr}: the direct/indirect trees, flattened.
        self._block_map: Dict[int, Dict[int, int]] = {}
        self._next_inum = ROOT_INUM

    @classmethod
    def mkfs(cls, device: BlockDevice, cpu: Optional[CPUModel] = None,
             actor: Optional[Actor] = None) -> "FFS":
        fs = cls(device, cpu, actor)
        root = fs.alloc_inode(S_IFDIR | 0o755, fs.actor)
        assert root.inum == ROOT_INUM
        root.nlink = 2
        fs._write_dir(root, Directory.new(ROOT_INUM, ROOT_INUM), fs.actor)
        fs.sync()
        return fs

    # ------------------------------------------------------------------
    # Inodes
    # ------------------------------------------------------------------

    def _inode_location(self, inum: int) -> int:
        block = self._inode_table_start + (inum // INODES_PER_BLOCK)
        if block >= self._inode_table_start + INODE_TABLE_BLOCKS:
            raise InvalidArgument("inode table full")
        return block

    def alloc_inode(self, mode: int, actor: Actor) -> Inode:
        inum = self._next_inum
        self._next_inum += 1
        ino = Inode(inum, mode=mode,
                    atime=actor.time, mtime=actor.time, ctime=actor.time)
        self._inodes[inum] = ino
        self._block_map[inum] = {}
        self.mark_inode_dirty(inum)
        return ino

    def get_inode(self, inum: int, actor: Optional[Actor] = None) -> Inode:
        ino = self._inodes.get(inum)
        if ino is not None:
            return ino
        actor = actor or self.actor
        block = self.device.read(actor, self._inode_location(inum), 1)
        self.cpu.block_ops(actor, 1)
        ino = find_inode_in_block(block, inum)
        self._inodes[inum] = ino
        self._block_map.setdefault(inum, {})
        return ino

    def mark_inode_dirty(self, inum: int) -> None:
        self._dirty_inodes.add(inum)

    def _destroy_inode(self, ino: Inode, actor: Actor) -> None:
        self._truncate_blocks(ino, 0, actor)
        self._block_map.pop(ino.inum, None)
        self.bcache.invalidate_inode(ino.inum)
        self._inodes.pop(ino.inum, None)
        self._forget_names(ino.inum)
        self._dirty_inodes.discard(ino.inum)

    def _flush_inodes(self, actor: Actor) -> None:
        by_block: Dict[int, List[Inode]] = {}
        for inum in sorted(self._dirty_inodes):
            ino = self._inodes.get(inum)
            if ino is None:
                continue
            by_block.setdefault(self._inode_location(inum), []).append(ino)
        self._dirty_inodes.clear()
        for blkno in sorted(by_block):
            # Read-modify-write: merge dirty inodes into their slots so
            # inodes not currently in memory survive the rewrite.
            raw = bytearray(self.device.read(actor, blkno, 1))
            for ino in by_block[blkno]:
                slot = ino.inum % INODES_PER_BLOCK
                raw[slot * INODE_SIZE:(slot + 1) * INODE_SIZE] = ino.pack()
            self.device.write(actor, blkno, bytes(raw))

    # ------------------------------------------------------------------
    # Block mapping (update in place)
    # ------------------------------------------------------------------

    def bmap(self, ino: Inode, lbn: int,
             actor: Optional[Actor] = None) -> int:
        return self._block_map.get(ino.inum, {}).get(lbn, UNASSIGNED)

    def bmap_cached(self, ino: Inode, lbn: int) -> int:
        """The whole block map is in core: the same as :meth:`bmap`."""
        return self.bmap(ino, lbn)

    def _place(self, ino: Inode, lbn: int, actor: Actor) -> None:
        """Allocate on first write; later operations reuse the location."""
        bmap = self._block_map.setdefault(ino.inum, {})
        if lbn not in bmap:
            bmap[lbn] = self.allocator.alloc(ino.inum)
            ino.blocks += 1

    def _truncate_blocks(self, ino: Inode, new_size: int,
                         actor: Actor) -> None:
        """Free the blocks past ``new_size``."""
        if ino.is_dir():
            self._forget_names(ino.inum)  # block count and bytes change
        first_dead = (new_size + BLOCK_SIZE - 1) // BLOCK_SIZE
        bmap = self._block_map.get(ino.inum, {})
        for lbn in [lbn for lbn in bmap if lbn >= first_dead]:
            self.allocator.free(ino.inum, bmap.pop(lbn))
            ino.blocks -= 1
            self.bcache.invalidate((ino.inum, lbn))
        ino.size = new_size
        self.mark_inode_dirty(ino.inum)

    # ------------------------------------------------------------------
    # Device I/O
    # ------------------------------------------------------------------

    def dev_read_refs(self, actor: Actor, daddr: int, nblocks: int):
        return self.device.read_refs(actor, daddr, nblocks)

    def _write_behind(self, actor: Actor) -> None:
        """Elevator write-behind: flush dirty buffers in daddr order,
        coalescing physically adjacent blocks into clustered writes."""
        dirty = self.bcache.dirty_buffers()
        addressed: List[Tuple[int, Tuple[int, int], bytes]] = []
        for buf in dirty:
            inum, lbn = buf.key
            daddr = self._block_map.get(inum, {}).get(lbn)
            if daddr is None:
                continue
            addressed.append((daddr, buf.key, buf.data))
        addressed.sort(key=lambda item: item[0])
        i = 0
        while i < len(addressed):
            run = [addressed[i]]
            while (i + len(run) < len(addressed)
                   and addressed[i + len(run)][0] == run[0][0] + len(run)
                   and len(run) < CLUSTER_BLOCKS):
                run.append(addressed[i + len(run)])
            i += len(run)
            image = b"".join(item[2] for item in run)
            self.device.write(actor, run[0][0], image)
            for _daddr, key, _data in run:
                self.bcache.mark_clean(key)

    def sync(self, actor: Optional[Actor] = None) -> None:
        actor = actor or self.actor
        self._write_behind(actor)
        self._flush_inodes(actor)

    def checkpoint(self, actor: Optional[Actor] = None) -> None:
        self.sync(actor)
