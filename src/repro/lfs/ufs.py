"""The one UFS layer: what LFS and the FFS baseline share.

4.4BSD's two filesystems share the UFS layer — the inode and directory
formats, the read and write paths, the namespace — and differ only in
where a block lives (paper §3, §6.2).  :class:`UFS` is that layer here,
so the FFS column of Tables 2–3 differs from LFS only in allocation and
clustering.  A layout subclass supplies:

* the inodes: ``get_inode``, ``alloc_inode`` and ``mark_inode_dirty``;
* the block map: ``bmap`` and ``bmap_cached`` (a hole is ``UNASSIGNED``);
* the raw read ``dev_read_refs``;
* ``_place``, called once per block the write loop buffers;
* ``_write_behind``, the flush a full buffer cache triggers;
* ``_truncate_blocks``, ``_destroy_inode``, ``sync`` and ``checkpoint``.

Every operation takes an :class:`~repro.sim.Actor` (defaulting to the
filesystem's own "kernel" actor) and charges virtual device and CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.blockdev.base import BlockDevice, CPUModel
from repro.blockdev.datapath import block_views
from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          InvalidArgument, IsADirectory, NotADirectory)
from repro.lfs.buffercache import BufferCache
from repro.lfs.constants import BLOCK_SIZE, ROOT_INUM, UNASSIGNED
from repro.lfs.directory import Directory
from repro.lfs.inode import Inode, S_IFDIR, S_IFREG
from repro.sim.actor import Actor

#: Max blocks coalesced into one device read (64 KB clustering).
CLUSTER_BLOCKS = 16

#: The paper's 3.2 MB buffer cache.
BCACHE_BYTES = int(3.2 * 1024 * 1024)


@dataclass
class UFSStats:
    """Calls the shared read and write paths served."""

    reads: int = 0
    writes: int = 0


class UFS:
    """A mounted filesystem's layout-independent half."""

    def __init__(self, device: BlockDevice, cpu: Optional[CPUModel],
                 actor: Actor, bcache_bytes: int, stats: UFSStats) -> None:
        self.device = device
        self.cpu = cpu or CPUModel()
        self.actor = actor
        self.bcache = BufferCache(bcache_bytes)
        self.stats = stats
        #: Per-inode (last-read lbn, read-ahead ramp), for sequential
        #: read-ahead detection.
        self._last_read_lbn: Dict[int, Tuple[Optional[int], int]] = {}
        self._inodes: Dict[int, Inode] = {}
        #: Parsed directories by inode number.  An entry lives no longer
        #: than its in-core inode and always equals the parse of the
        #: directory's current bytes (see DESIGN.md, "Namespace cache").
        self._dirs: Dict[int, Directory] = {}
        #: Resolved paths: path -> (inum, every (dir inum, lbn) the walk
        #: read, (dir inum, nblocks) per component).  Names only
        #: directories that are in ``_dirs`` and ``_inodes``, so it is
        #: cleared whenever either loses one (:meth:`_forget_names`).
        self._walks: Dict[str, Tuple[int, tuple, tuple]] = {}
        self._dirty_inodes: Set[int] = set()

    # ------------------------------------------------------------------
    # File data I/O
    # ------------------------------------------------------------------

    def read(self, inum: int, offset: int, nbytes: int,
             actor: Optional[Actor] = None,
             update_atime: bool = True) -> bytes:
        """Read file bytes; holes read as zeros; truncates at EOF."""
        actor = actor or self.actor
        ino = self.get_inode(inum, actor)
        if offset >= ino.size:
            return b""
        nbytes = min(nbytes, ino.size - offset)
        end_lbn = (offset + nbytes - 1) // BLOCK_SIZE
        blocks = [self._read_block(ino, lbn, actor)
                  for lbn in range(offset // BLOCK_SIZE, end_lbn + 1)]
        if update_atime:
            ino.atime = actor.time
            self.mark_inode_dirty(inum)
        self.stats.reads += 1
        start = offset % BLOCK_SIZE
        return b"".join(blocks)[start:start + nbytes]

    def _read_block(self, ino: Inode, lbn: int, actor: Actor) -> bytes:
        """One data block through the cache, with read clustering.

        Read-ahead clusters up to 64 KB of physically adjacent blocks,
        but only when the access continues a sequential pattern — a read
        of frame N after frame N-1 (or the file's start); isolated random
        reads fetch a single block, like the clustered FFS the paper
        benchmarks against.
        """
        self.cpu.block_ops(actor, 1)
        key = (ino.inum, lbn)
        last_lbn, ramp = self._last_read_lbn.get(ino.inum, (None, 2))
        sequential = lbn == 0 or last_lbn == lbn - 1
        # Read-ahead ramps up as sequentiality is confirmed: 2 blocks on
        # the first touch, doubling to the full 64 KB cluster.
        ramp = min(CLUSTER_BLOCKS, ramp * 2) if sequential else 2
        self._last_read_lbn[ino.inum] = (lbn, ramp)
        cached = self.bcache.get(key)
        if cached is not None:
            return cached
        daddr = self.bmap(ino, lbn, actor)
        if daddr == UNASSIGNED:
            return bytes(BLOCK_SIZE)
        run = 1
        if sequential:
            max_lbn_file = max(0, (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE - 1)
            while (run < ramp
                   and lbn + run <= max_lbn_file
                   and self.bcache.peek((ino.inum, lbn + run)) is None
                   and self.bmap_cached(ino, lbn + run) == daddr + run):
                run += 1
        # Borrowed ranges instead of a joined image: the store keeps
        # whole-block extents and hands each block through untouched (no
        # join copy, no re-slicing).
        refs = self.dev_read_refs(actor, daddr, run)
        blocks = [b if isinstance(b, bytes) else bytes(b)
                  for b in block_views(refs, BLOCK_SIZE)]
        for i in range(run):
            self.bcache.put((ino.inum, lbn + i), blocks[i], dirty=False)
        return blocks[0]

    def write(self, inum: int, offset: int, data: bytes,
              actor: Optional[Actor] = None) -> int:
        """Write file bytes at ``offset``; extends the file as needed."""
        actor = actor or self.actor
        ino = self.get_inode(inum, actor)
        pos = offset
        remaining = memoryview(data)
        while remaining.nbytes:
            lbn = pos // BLOCK_SIZE
            in_block = pos % BLOCK_SIZE
            take = min(BLOCK_SIZE - in_block, remaining.nbytes)
            if take == BLOCK_SIZE:
                block = bytes(remaining[:take])
            else:
                base = self._read_block_for_update(ino, lbn, actor)
                block = (base[:in_block] + bytes(remaining[:take])
                         + base[in_block + take:])
            self._place(ino, lbn, actor)
            # The user-space copy into the buffer cache overlaps device
            # I/O on the paper's machine, so it is not charged here; the
            # LFS staging copy at segment-write time is the one that
            # shows up in the measurements (§7.1).
            self.bcache.put((inum, lbn), block, dirty=True)
            pos += take
            remaining = remaining[take:]
        if pos > ino.size:
            ino.size = pos
        ino.mtime = actor.time
        self.mark_inode_dirty(inum)
        self.stats.writes += 1
        if self.bcache.needs_flush():
            self._write_behind(actor)
        return len(data)

    def _read_block_for_update(self, ino: Inode, lbn: int,
                               actor: Actor) -> bytes:
        if lbn * BLOCK_SIZE >= ino.size:
            return bytes(BLOCK_SIZE)
        return self._read_block(ino, lbn, actor)

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------

    def _read_dir(self, ino: Inode, actor: Actor) -> Directory:
        """The directory's entries, parsed once per in-core inode.

        A warm directory still reads every one of its blocks — the CPU
        charge, buffer-cache touch, read-ahead state and any demand fetch
        are those of the cold read — and skips only the join and parse.
        The result is shared: only :meth:`_write_dir` may see it mutated.
        """
        if not ino.is_dir():
            raise NotADirectory(f"inode {ino.inum}")
        directory = self._dirs.get(ino.inum)
        if directory is None:
            raw = self.read(ino.inum, 0, ino.size, actor, update_atime=False)
            directory = self._dirs[ino.inum] = Directory.parse(raw)
        else:
            for lbn in range((ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE):
                self._read_block(ino, lbn, actor)
            self.stats.reads += 1
        return directory

    def _write_dir(self, ino: Inode, directory: Directory,
                   actor: Actor) -> None:
        # Callers mutate the shared parse just before this call: drop it
        # first and re-install it only once the bytes are written, so a
        # NoSpace or device error below cannot leave a parse that differs
        # from the media.
        self._forget_names(ino.inum)
        raw = directory.pack()
        old_size = ino.size
        self.write(ino.inum, 0, raw.ljust(
            max(len(raw), 1), b"\0"), actor)
        if len(raw) < old_size:
            self._truncate_blocks(ino, len(raw), actor)
        ino.size = max(len(raw), 1)
        self.mark_inode_dirty(ino.inum)
        self._dirs[ino.inum] = directory

    def _forget_names(self, inum: Optional[int] = None) -> None:
        """Drop one directory's parse (or all of them) and every resolved
        path: the one invalidation point of the namespace caches."""
        if inum is None:
            self._dirs.clear()
        else:
            self._dirs.pop(inum, None)
        self._walks.clear()

    def lookup(self, path: str, actor: Optional[Actor] = None) -> int:
        """Resolve a path to an inode number.

        A path resolved before, whose directory blocks are all still
        buffered, is not walked again: the walk's charges are replayed
        (DESIGN.md, "Namespace cache").  Anything else takes the loop.
        """
        actor = actor or self.actor
        walk = self._walks.get(path)
        if walk is not None and self.bcache.hit_all(walk[1]):
            inum, keys, dirs = walk
            block_ops = self.cpu.block_ops
            for _ in keys:  # one float addition per block, as the loop does
                block_ops(actor, 1)
            last_read = self._last_read_lbn
            for dir_inum, nblocks in dirs:
                ramp = last_read.get(dir_inum, (None, 2))[1]
                last_read[dir_inum] = (nblocks - 1,
                                       min(CLUSTER_BLOCKS, ramp * 2 ** nblocks))
            self.stats.reads += len(dirs)
            return inum
        keys, dirs, inum = [], [], ROOT_INUM
        for part in [p for p in path.split("/") if p]:
            ino = self.get_inode(inum, actor)
            directory = self._read_dir(ino, actor)
            nblocks = (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE
            keys += [(inum, lbn) for lbn in range(nblocks)]
            dirs.append((inum, nblocks))
            inum = directory.lookup(part)
        self._walks[path] = (inum, tuple(keys), tuple(dirs))
        return inum

    def _parent_of(self, path: str, actor: Actor) -> Tuple[Inode, str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise InvalidArgument("path names the root")
        parent_path = "/".join(parts[:-1])
        parent_inum = self.lookup(parent_path, actor) if parent_path else ROOT_INUM
        return self.get_inode(parent_inum, actor), parts[-1]

    def create(self, path: str, mode: int = S_IFREG | 0o644,
               actor: Optional[Actor] = None) -> int:
        """Create a regular file; returns its inode number."""
        actor = actor or self.actor
        parent, name = self._parent_of(path, actor)
        directory = self._read_dir(parent, actor)
        if name in directory.entries:
            raise FileExists(path)
        ino = self.alloc_inode(mode, actor)
        directory.add(name, ino.inum)
        self._write_dir(parent, directory, actor)
        return ino.inum

    def mkdir(self, path: str, actor: Optional[Actor] = None) -> int:
        actor = actor or self.actor
        parent, name = self._parent_of(path, actor)
        directory = self._read_dir(parent, actor)
        if name in directory.entries:
            raise FileExists(path)
        ino = self.alloc_inode(S_IFDIR | 0o755, actor)
        ino.nlink = 2
        self._write_dir(ino, Directory.new(ino.inum, parent.inum), actor)
        directory.add(name, ino.inum)
        parent.nlink += 1
        self._write_dir(parent, directory, actor)
        return ino.inum

    def readdir(self, path: str, actor: Optional[Actor] = None) -> List[str]:
        actor = actor or self.actor
        ino = self.get_inode(self.lookup(path, actor), actor)
        return self._read_dir(ino, actor).names()

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
        ino.nlink -= 1
        if ino.nlink <= 0:
            self._destroy_inode(ino, actor)

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
        self._destroy_inode(ino, actor)

    def rename(self, old: str, new: str,
               actor: Optional[Actor] = None) -> None:
        """Simple rename (target must not exist)."""
        actor = actor or self.actor
        old_parent, old_name = self._parent_of(old, actor)
        inum = self._read_dir(old_parent, actor).lookup(old_name)
        new_parent, new_name = self._parent_of(new, actor)
        new_dir = self._read_dir(new_parent, actor)
        if new_name in new_dir.entries:
            raise FileExists(new)
        new_dir.add(new_name, inum)
        self._write_dir(new_parent, new_dir, actor)
        old_dir = self._read_dir(old_parent, actor)
        old_dir.remove(old_name)
        self._write_dir(old_parent, old_dir, actor)

    def truncate(self, path: str, new_size: int,
                 actor: Optional[Actor] = None) -> None:
        actor = actor or self.actor
        ino = self.get_inode(self.lookup(path, actor), actor)
        # Growing releases nothing: the same call just sets the size.
        self._truncate_blocks(ino, new_size, actor)

    def stat(self, path: str, actor: Optional[Actor] = None) -> Inode:
        actor = actor or self.actor
        return self.get_inode(self.lookup(path, actor), actor)

    # -- path conveniences -----------------------------------------------------

    def write_path(self, path: str, data: bytes, offset: int = 0,
                   actor: Optional[Actor] = None,
                   create: bool = True) -> int:
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

    # ------------------------------------------------------------------
    # Cache control (benchmark helpers)
    # ------------------------------------------------------------------

    def drop_caches(self, actor: Optional[Actor] = None,
                    drop_inodes: bool = False) -> None:
        """Flush dirty state, then empty the buffer (and inode) caches.

        Equivalent to the paper's 'flush the buffer cache' / 'freshly
        mounted filesystem' preconditions.
        """
        actor = actor or self.actor
        self.sync(actor)
        self.bcache.drop_clean()
        self._last_read_lbn.clear()
        if drop_inodes:
            self._inodes.clear()
            self._forget_names()
