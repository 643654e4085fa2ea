"""The FFS baseline filesystem.

Mirrors the public API of :class:`repro.lfs.LFS` closely enough that the
paper's benchmarks run unchanged against either system.  The behavioural
essentials (update-in-place, clustered reads, elevator write-behind) live
here; see the package docstring for what is deliberately simplified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.blockdev.base import BlockDevice, CPUModel
from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          InvalidArgument, IsADirectory, NotADirectory)
from repro.lfs.buffercache import BufferCache
from repro.lfs.constants import BLOCK_SIZE, ROOT_INUM
from repro.lfs.directory import Directory
from repro.lfs.inode import (Inode, INODE_SIZE, INODES_PER_BLOCK, S_IFDIR,
                             S_IFREG, find_inode_in_block)
from repro.ffs.allocator import CylinderGroupAllocator
from repro.sim.actor import Actor


@dataclass
class FFSConfig:
    """FFS tunables (matched to the paper's benchmark configuration)."""

    cluster_blocks: int = 16          # 64 KB clusters ("maxcontig = 16")
    bcache_bytes: int = int(3.2 * 1024 * 1024)
    inode_table_blocks: int = 64      # 2048 inodes
    group_blocks: int = 2048


class FFS:
    """An update-in-place filesystem with clustering, as a baseline."""

    FIRST_INUM = 2  # root

    def __init__(self, device: BlockDevice,
                 config: Optional[FFSConfig] = None,
                 cpu: Optional[CPUModel] = None,
                 actor: Optional[Actor] = None) -> None:
        self.device = device
        self.config = config or FFSConfig()
        self.cpu = cpu or CPUModel()
        self.actor = actor or Actor("ffs-kernel")
        self.bcache = BufferCache(self.config.bcache_bytes)
        self._inode_table_start = 1  # block 0 is the superblock analogue
        self.allocator = CylinderGroupAllocator(
            device.capacity_blocks,
            first_data_block=(self._inode_table_start
                              + self.config.inode_table_blocks),
            group_blocks=self.config.group_blocks,
            cluster_blocks=self.config.cluster_blocks)
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: set = set()
        self._last_read_lbn: Dict[int, int] = {}
        #: inum -> {lbn: daddr}: the direct/indirect trees, flattened.
        self._block_map: Dict[int, Dict[int, int]] = {}
        self._next_inum = ROOT_INUM
        self.reads = 0
        self.writes = 0

    @classmethod
    def mkfs(cls, device: BlockDevice, config: Optional[FFSConfig] = None,
             cpu: Optional[CPUModel] = None,
             actor: Optional[Actor] = None) -> "FFS":
        fs = cls(device, config, cpu, actor)
        root = fs._alloc_inode(S_IFDIR | 0o755)
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
        if block >= self._inode_table_start + self.config.inode_table_blocks:
            raise InvalidArgument("inode table full")
        return block

    def _alloc_inode(self, mode: int) -> Inode:
        inum = self._next_inum
        self._next_inum += 1
        now = self.actor.time
        ino = Inode(inum, mode=mode, atime=now, mtime=now, ctime=now)
        self._inodes[inum] = ino
        self._block_map[inum] = {}
        self._dirty_inodes.add(inum)
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
             actor: Optional[Actor] = None) -> Optional[int]:
        return self._block_map.get(ino.inum, {}).get(lbn)

    def _assign_block(self, ino: Inode, lbn: int) -> int:
        """Allocate on first write; later operations reuse the location."""
        bmap = self._block_map.setdefault(ino.inum, {})
        daddr = bmap.get(lbn)
        if daddr is None:
            daddr = self.allocator.alloc(ino.inum)
            bmap[lbn] = daddr
            ino.blocks += 1
        return daddr

    # ------------------------------------------------------------------
    # Data I/O
    # ------------------------------------------------------------------

    def read(self, inum: int, offset: int, nbytes: int,
             actor: Optional[Actor] = None,
             update_atime: bool = True) -> bytes:
        actor = actor or self.actor
        ino = self.get_inode(inum, actor)
        if offset >= ino.size:
            return b""
        nbytes = min(nbytes, ino.size - offset)
        out = bytearray()
        lbn = offset // BLOCK_SIZE
        end_lbn = (offset + nbytes - 1) // BLOCK_SIZE
        while lbn <= end_lbn:
            out += self._read_block(ino, lbn, actor)
            lbn += 1
        if update_atime:
            ino.atime = actor.time
            self._dirty_inodes.add(inum)
        self.reads += 1
        start = offset % BLOCK_SIZE
        return bytes(out[start:start + nbytes])

    def _read_block(self, ino: Inode, lbn: int, actor: Actor) -> bytes:
        # Read clustering coalesces physically adjacent blocks (the same
        # code LFS uses) — but only on sequential continuation; isolated
        # random reads fetch one block.
        self.cpu.block_ops(actor, 1)
        key = (ino.inum, lbn)
        last_lbn, ramp = self._last_read_lbn.get(ino.inum, (None, 2))
        sequential = lbn == 0 or last_lbn == lbn - 1
        ramp = min(self.config.cluster_blocks, ramp * 2) if sequential else 2
        self._last_read_lbn[ino.inum] = (lbn, ramp)
        cached = self.bcache.get(key)
        if cached is not None:
            return cached
        daddr = self.bmap(ino, lbn, actor)
        if daddr is None:
            return bytes(BLOCK_SIZE)
        run = 1
        if sequential:
            max_lbn = max(0, (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE - 1)
            bmap = self._block_map.get(ino.inum, {})
            while (run < ramp
                   and lbn + run <= max_lbn
                   and self.bcache.peek((ino.inum, lbn + run)) is None
                   and bmap.get(lbn + run) == daddr + run):
                run += 1
        data = self.device.read(actor, daddr, run)
        for i in range(run):
            self.bcache.put((ino.inum, lbn + i),
                            data[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE],
                            dirty=False)
        return data[:BLOCK_SIZE]

    def write(self, inum: int, offset: int, data: bytes,
              actor: Optional[Actor] = None) -> int:
        actor = actor or self.actor
        ino = self.get_inode(inum, actor)
        pos = offset
        remaining = memoryview(bytes(data))
        while remaining.nbytes:
            lbn = pos // BLOCK_SIZE
            in_block = pos % BLOCK_SIZE
            take = min(BLOCK_SIZE - in_block, remaining.nbytes)
            if take == BLOCK_SIZE:
                block = bytes(remaining[:take])
            else:
                base = (self._read_block(ino, lbn, actor)
                        if lbn * BLOCK_SIZE < ino.size else bytes(BLOCK_SIZE))
                block = (base[:in_block] + bytes(remaining[:take])
                         + base[in_block + take:])
            self._assign_block(ino, lbn)
            # Buffered writes overlap device I/O (write-behind); no
            # synchronous CPU charge, mirroring the LFS write path.
            self.bcache.put((inum, lbn), block, dirty=True)
            pos += take
            remaining = remaining[take:]
        if pos > ino.size:
            ino.size = pos
        ino.mtime = actor.time
        self._dirty_inodes.add(inum)
        self.writes += 1
        if self.bcache.needs_flush():
            self._flush_dirty(actor)
        return len(data)

    def _flush_dirty(self, actor: Actor) -> None:
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
                   and len(run) < self.config.cluster_blocks):
                run.append(addressed[i + len(run)])
            i += len(run)
            image = b"".join(item[2] for item in run)
            self.device.write(actor, run[0][0], image)
            for _daddr, key, _data in run:
                self.bcache.mark_clean(key)

    # ------------------------------------------------------------------
    # Namespace (same shapes as the LFS API)
    # ------------------------------------------------------------------

    def _read_dir(self, ino: Inode, actor: Actor) -> Directory:
        if not ino.is_dir():
            raise NotADirectory(f"inode {ino.inum}")
        raw = self.read(ino.inum, 0, ino.size, actor, update_atime=False)
        return Directory.parse(raw)

    def _write_dir(self, ino: Inode, directory: Directory,
                   actor: Actor) -> None:
        raw = directory.pack()
        self.write(ino.inum, 0, raw.ljust(max(len(raw), 1), b"\0"), actor)
        ino.size = max(len(raw), 1)
        self._dirty_inodes.add(ino.inum)

    def lookup(self, path: str, actor: Optional[Actor] = None) -> int:
        actor = actor or self.actor
        inum = ROOT_INUM
        for part in [p for p in path.split("/") if p]:
            ino = self.get_inode(inum, actor)
            inum = self._read_dir(ino, actor).lookup(part)
        return inum

    def _parent_of(self, path: str, actor: Actor) -> Tuple[Inode, str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise InvalidArgument("path names the root")
        parent_path = "/".join(parts[:-1])
        parent = self.lookup(parent_path, actor) if parent_path else ROOT_INUM
        return self.get_inode(parent, actor), parts[-1]

    def create(self, path: str, mode: int = S_IFREG | 0o644,
               actor: Optional[Actor] = None) -> int:
        actor = actor or self.actor
        parent, name = self._parent_of(path, actor)
        directory = self._read_dir(parent, actor)
        if name in directory.entries:
            raise FileExists(path)
        ino = self._alloc_inode(mode)
        directory.add(name, ino.inum)
        self._write_dir(parent, directory, actor)
        return ino.inum

    def mkdir(self, path: str, actor: Optional[Actor] = None) -> int:
        actor = actor or self.actor
        parent, name = self._parent_of(path, actor)
        directory = self._read_dir(parent, actor)
        if name in directory.entries:
            raise FileExists(path)
        ino = self._alloc_inode(S_IFDIR | 0o755)
        ino.nlink = 2
        self._write_dir(ino, Directory.new(ino.inum, parent.inum), actor)
        directory.add(name, ino.inum)
        parent.nlink += 1
        self._write_dir(parent, directory, actor)
        return ino.inum

    def readdir(self, path: str, actor: Optional[Actor] = None) -> List[str]:
        actor = actor or self.actor
        return self._read_dir(
            self.get_inode(self.lookup(path, actor), actor), actor).names()

    def unlink(self, path: str, actor: Optional[Actor] = None) -> None:
        actor = actor or self.actor
        parent, name = self._parent_of(path, actor)
        directory = self._read_dir(parent, actor)
        inum = directory.lookup(name)
        ino = self.get_inode(inum, actor)
        if ino.is_dir():
            raise IsADirectory(path)
        directory.remove(name)
        self._write_dir(parent, directory, actor)
        for lbn, daddr in self._block_map.get(inum, {}).items():
            self.allocator.free(inum, daddr)
        self._block_map.pop(inum, None)
        self.bcache.invalidate_inode(inum)
        self._inodes.pop(inum, None)
        self._dirty_inodes.discard(inum)

    def rmdir(self, path: str, actor: Optional[Actor] = None) -> None:
        actor = actor or self.actor
        parent, name = self._parent_of(path, actor)
        directory = self._read_dir(parent, actor)
        inum = directory.lookup(name)
        ino = self.get_inode(inum, actor)
        if not ino.is_dir():
            raise NotADirectory(path)
        if not self._read_dir(ino, actor).is_empty():
            raise DirectoryNotEmpty(path)
        directory.remove(name)
        parent.nlink -= 1
        self._write_dir(parent, directory, actor)
        self._inodes.pop(inum, None)

    def stat(self, path: str, actor: Optional[Actor] = None) -> Inode:
        actor = actor or self.actor
        return self.get_inode(self.lookup(path, actor), actor)

    # -- conveniences -------------------------------------------------------------

    def write_path(self, path: str, data: bytes, offset: int = 0,
                   actor: Optional[Actor] = None, create: bool = True) -> int:
        actor = actor or self.actor
        try:
            inum = self.lookup(path, actor)
        except FileNotFound:
            if not create:
                raise
            inum = self.create(path, actor=actor)
        return self.write(inum, offset, data, actor)

    def read_path(self, path: str, offset: int = 0, nbytes: int = -1,
                  actor: Optional[Actor] = None) -> bytes:
        actor = actor or self.actor
        inum = self.lookup(path, actor)
        if nbytes < 0:
            nbytes = self.get_inode(inum, actor).size - offset
        return self.read(inum, offset, nbytes, actor)

    # -- maintenance ---------------------------------------------------------------

    def sync(self, actor: Optional[Actor] = None) -> None:
        actor = actor or self.actor
        self._flush_dirty(actor)
        self._flush_inodes(actor)

    def checkpoint(self, actor: Optional[Actor] = None) -> None:
        self.sync(actor)

    def drop_caches(self, actor: Optional[Actor] = None,
                    drop_inodes: bool = False) -> None:
        actor = actor or self.actor
        self.sync(actor)
        self.bcache.drop_clean()
        self._last_read_lbn.clear()
        if drop_inodes:
            self._inodes.clear()
