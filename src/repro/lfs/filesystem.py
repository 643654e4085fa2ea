"""The log-structured filesystem proper.

Implements the 4.4BSD LFS semantics the paper builds on (§3):

* all data, metadata, and directories live in a segmented log;
* the inode map (in the ifile) locates each file's inode;
* reads follow FFS-style direct/indirect pointers once the inode is found;
* writes append to the log tail, relocating blocks and dirtying their
  index structures, which are themselves appended;
* checkpoints store the ifile inode's address in the superblock;
* recovery rolls forward along the threaded log (see ``recovery.py``).

The read and write paths and the namespace are the UFS layer LFS shares
with the FFS baseline (``ufs.py``); this module is the log layout under
them.  Every operation charges virtual device and CPU time, so the
paper's benchmarks fall out of the same code paths that move real bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blockdev.base import BlockDevice, CPUModel
from repro.blockdev.datapath import materialize_refs
from repro.errors import FileNotFound, InvalidArgument, NoSpace
from repro.lfs import recovery
from repro.lfs.constants import (BLOCK_SIZE, DOUBLE_ROOT_LBN, IFILE_INUM,
                                 MAX_LBN, NDADDR, PTRS_PER_BLOCK,
                                 RESERVED_BLOCKS, ROOT_INUM, SEGMENT_SIZE,
                                 SINGLE_ROOT_LBN, SUMMARY_SIZE_LFS, UNASSIGNED,
                                 double_child_lbn)
from repro.lfs.directory import Directory
from repro.lfs.ifile import IFile, IMapEntry, SEG_ACTIVE, SEG_DIRTY, SegUse
from repro.lfs.inode import (Inode, S_IFDIR, S_IFREG, find_inode_in_block)
from repro.lfs.segwriter import SegmentWriter
from repro.lfs.superblock import Checkpoint, Superblock
from repro.lfs.ufs import BCACHE_BYTES, UFS, UFSStats
from repro.sim.actor import Actor

_PTR = struct.Struct("<I")

#: Indirect blocks start life holding all-UNASSIGNED pointers.
_EMPTY_INDIRECT = b"\xff" * BLOCK_SIZE


def _consecutive(values: Sequence[int], i: int, limit: int) -> int:
    """The end of the run ``values[i], values[i] + 1, …`` within
    ``values[i:limit]``, grown by slice comparisons four times longer
    each time, then block by block inside the slice that failed."""
    first, j, step = values[i], i + 1, 16
    while j < limit:
        k = j + step if j + step < limit else limit
        if (values[k - 1] - first != k - 1 - i
                or list(values[j:k]) != list(range(first + j - i,
                                                   first + k - i))):
            while values[j] == first + j - i:  # a mismatch lies before k
                j += 1
            return j
        j, step = k, step * 4
    return j


def _locate(lbn: int) -> Tuple[Optional[int], int, int]:
    """Where the pointer to logical block ``lbn`` lives: ``(pointer-block
    lbn, index, end)``.

    A pointer-block lbn of None names the inode itself (``index`` counts
    ``db`` then ``ib``).  Logical blocks ``lbn .. end - 1`` keep their
    pointers in that same block, so a run of them is one walk; an
    indirect block is a run of one.  Negative ``lbn`` values name
    indirect blocks, following the 4.4BSD convention.
    """
    if lbn >= 0:
        if lbn < NDADDR:
            return None, lbn, NDADDR
        rel = lbn - NDADDR
        if rel < PTRS_PER_BLOCK:
            return SINGLE_ROOT_LBN, rel, NDADDR + PTRS_PER_BLOCK
        if lbn > MAX_LBN:
            raise InvalidArgument(f"lbn {lbn} exceeds max file size")
        j, k = divmod(rel - PTRS_PER_BLOCK, PTRS_PER_BLOCK)
        return double_child_lbn(j), k, lbn - k + PTRS_PER_BLOCK
    if lbn >= DOUBLE_ROOT_LBN:  # a root: its pointer is ib[0] or ib[1]
        return None, NDADDR - 1 - lbn, lbn + 1
    return DOUBLE_ROOT_LBN, -lbn - 3, lbn + 1  # a double child


@dataclass
class LFSConfig:
    """Tunables for one filesystem instance."""

    segment_size: int = SEGMENT_SIZE
    summary_size: int = SUMMARY_SIZE_LFS
    bcache_bytes: int = BCACHE_BYTES

    @property
    def blocks_per_seg(self) -> int:
        return self.segment_size // BLOCK_SIZE


@dataclass
class LFSStats(UFSStats):
    """Operation counters, mostly for tests and reports."""

    blocks_read: int = 0
    blocks_written: int = 0
    segments_written: int = 0
    partials_written: int = 0
    checkpoints: int = 0
    demand_fetches: int = 0


class LFS(UFS):
    """A mounted log-structured filesystem."""

    def __init__(self, device: BlockDevice, config: Optional[LFSConfig] = None,
                 cpu: Optional[CPUModel] = None,
                 actor: Optional[Actor] = None) -> None:
        self.config = config or LFSConfig()
        super().__init__(device, cpu, actor or Actor("lfs-kernel"),
                         self.config.bcache_bytes, LFSStats())

        # Populated by mkfs()/mount():
        self.sb: Superblock = Superblock()
        self.ifile: IFile = IFile(1)
        self.ifile_inode: Inode = Inode(IFILE_INUM)
        self.cur_segno: int = 0
        self.cur_offset: int = 0          # blocks consumed in cur segment
        self._mounted = False

        self.segwriter = SegmentWriter(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def mkfs(cls, device: BlockDevice, config: Optional[LFSConfig] = None,
             cpu: Optional[CPUModel] = None,
             actor: Optional[Actor] = None,
             ncachesegs: int = 0) -> "LFS":
        """Create a fresh filesystem on ``device`` and mount it."""
        fs = cls(device, config, cpu, actor)
        bps = fs.config.blocks_per_seg
        nsegs = (device.capacity_blocks - RESERVED_BLOCKS) // bps
        if nsegs < 4:
            raise InvalidArgument("device too small for an LFS")
        # One segment of address space is unusable: the boot-block shift
        # makes the last addressable segment too short (paper §6.3).
        fs.sb = Superblock(segment_size=fs.config.segment_size, nsegs=nsegs,
                           ncachesegs=ncachesegs)
        fs.ifile = IFile(nsegs)
        for seg in fs.ifile.segs:
            seg.bytes_avail = fs.config.segment_size
        fs.ifile_inode = Inode(IFILE_INUM, mode=S_IFREG | 0o600)
        fs.cur_segno = 0
        fs.cur_offset = 0
        seg0 = fs.ifile.seguse(0)
        seg0.flags = SEG_DIRTY | SEG_ACTIVE
        fs._mounted = True
        # Root directory.
        root = Inode(ROOT_INUM, mode=S_IFDIR | 0o755, nlink=2)
        fs.ifile.imap[ROOT_INUM] = IMapEntry(version=1)
        fs._inodes[ROOT_INUM] = root
        fs._write_dir(root, Directory.new(ROOT_INUM, ROOT_INUM), fs.actor)
        fs.checkpoint(fs.actor)
        return fs

    @classmethod
    def mount(cls, device: BlockDevice, config: Optional[LFSConfig] = None,
              cpu: Optional[CPUModel] = None,
              actor: Optional[Actor] = None) -> "LFS":
        """Mount an existing filesystem, rolling the log forward."""
        return recovery.mount(cls, device, config, cpu, actor)

    # ------------------------------------------------------------------
    # Address geometry (overridden by HighLight for the unified space)
    # ------------------------------------------------------------------

    def seg_base(self, segno: int) -> int:
        """First block address of segment ``segno``."""
        return self.sb.seg_base(segno)

    def segno_of(self, daddr: int) -> int:
        """Segment number containing block address ``daddr``."""
        return (daddr - RESERVED_BLOCKS) // self.config.blocks_per_seg

    def is_disk_segno(self, segno: int) -> bool:
        """True when ``segno`` refers to a secondary-storage segment."""
        return 0 <= segno < self.ifile.nsegs

    # -- raw device access (always through here; HighLight redirects) -------

    def dev_read_refs(self, actor: Actor, daddr: int, nblocks: int):
        """The one raw read: borrowed byte ranges (no join copy)."""
        self.stats.blocks_read += nblocks
        return self.device.read_refs(actor, daddr, nblocks)

    def dev_writev(self, actor: Actor, daddr: int, parts) -> None:
        """The one raw write: a list of parts as one device op."""
        self.stats.blocks_written += sum(map(len, parts)) // BLOCK_SIZE
        self.device.writev(actor, daddr, parts)

    def dev_read(self, actor: Actor, daddr: int, nblocks: int) -> bytes:
        """:meth:`dev_read_refs` joined into one image."""
        return materialize_refs(self.dev_read_refs(actor, daddr, nblocks))

    def dev_write(self, actor: Actor, daddr: int, data: bytes) -> None:
        """A one-part :meth:`dev_writev`."""
        self.dev_writev(actor, daddr, [data])

    # ------------------------------------------------------------------
    # Inode management
    # ------------------------------------------------------------------

    @property
    def pinned_inums(self) -> frozenset:
        """Inodes that never migrate and are never orphans: "all the
        special files used by the base LFS and HighLight ... always
        remain on disk" (§6.4).  The base LFS has one, the ifile."""
        return frozenset({IFILE_INUM})

    def get_inode(self, inum: int, actor: Optional[Actor] = None) -> Inode:
        """Fetch an inode, reading its inode block from the log if needed."""
        if inum == IFILE_INUM:
            return self.ifile_inode
        ino = self._inodes.get(inum)
        if ino is not None:
            return ino
        actor = actor or self.actor
        entry = self.ifile.imap_lookup(inum)
        if entry is None or entry.daddr == UNASSIGNED:
            raise FileNotFound(f"inode {inum}")
        block = self.dev_read(actor, entry.daddr, 1)
        self.cpu.block_ops(actor, 1)
        ino = find_inode_in_block(block, inum)
        self._inodes[inum] = ino
        return ino

    def mark_inode_dirty(self, inum: int) -> None:
        if inum != IFILE_INUM:
            self._dirty_inodes.add(inum)

    def alloc_inode(self, mode: int, actor: Actor) -> Inode:
        inum = self.ifile.alloc_inum()
        ino = Inode(inum, mode=mode,
                    atime=actor.time, mtime=actor.time, ctime=actor.time)
        ino.gen = self.ifile.imap_entry(inum).version
        self._inodes[inum] = ino
        self.mark_inode_dirty(inum)
        return ino

    # ------------------------------------------------------------------
    # Block mapping: logical block -> device address
    # ------------------------------------------------------------------

    @staticmethod
    def _inode_ptrs(ino: Inode, index: int) -> Tuple[List[int], int]:
        """The inode's pointer list holding :func:`_locate`'s ``index``, and
        the position in it."""
        if index < NDADDR:
            return ino.db, index
        return ino.ib, index - NDADDR

    @staticmethod
    def _path(inum: int, plbn: int) -> List[Tuple[int, int]]:
        """Buffer keys a walk to pointer block ``plbn`` gets, in order:
        a double child is reached through the double root."""
        if plbn < DOUBLE_ROOT_LBN:
            return [(inum, DOUBLE_ROOT_LBN), (inum, plbn)]
        return [(inum, plbn)]

    def _read_indirect(self, ino: Inode, ind_lbn: int, daddr: int,
                       actor: Actor, create: bool = False) -> bytes:
        """Read an indirect block through the buffer cache.  A hole reads
        as all-UNASSIGNED pointers, or with ``create`` is materialised as
        a fresh dirty block."""
        key = (ino.inum, ind_lbn)
        cached = self.bcache.get(key)
        if cached is not None:
            return cached
        if daddr == UNASSIGNED:
            if create:
                self.bcache.put(key, _EMPTY_INDIRECT, dirty=True)
                ino.blocks += 1
            return _EMPTY_INDIRECT
        data = self.dev_read(actor, daddr, 1)
        self.cpu.block_ops(actor, 1)
        self.bcache.put(key, data, dirty=False)
        return data

    def _pointer_block(self, ino: Inode, plbn: int, actor: Actor,
                       create: bool = False) -> bytes:
        """Pointer block ``plbn`` reached the way one bmap (or, with
        ``create``, one set_bmap) reaches it: its own pointer first —
        which gets the root for a double child — then the block."""
        if plbn >= DOUBLE_ROOT_LBN:  # a root: its pointer is in the inode
            daddr = ino.ib[-1 - plbn]
        else:  # a double child: its pointer is in the root
            root = self._pointer_block(ino, DOUBLE_ROOT_LBN, actor, create)
            daddr = _PTR.unpack_from(root, (-3 - plbn) * 4)[0]
        return self._read_indirect(ino, plbn, daddr, actor, create)

    def _walk(self, ino: Inode, plbn: int, n: int, actor: Actor,
              create: bool) -> Tuple[bytes, List[Tuple[int, int]], int]:
        """One walk to pointer block ``plbn``, and how many of the next
        ``n`` identical walks it stands for.

        All ``n``, when the walk leaves every block on its path buffered
        or a hole (a bmap re-reads no hole): the others then only touch,
        which :meth:`BufferCache.repeat` counts.  Just this one, when a
        deeper block's insertion evicted the root it had read — the next
        walk reads the root again.  Returns ``(block, path, count)``.
        """
        misses = self.bcache.misses
        block = self._pointer_block(ino, plbn, actor, create)
        path = self._path(ino.inum, plbn)
        root = path[0]
        # A walk that missed nothing left its path as it found it.
        if (self.bcache.misses != misses and self.bcache.peek(root) is None
                and self.bmap_cached(ino, root[1]) != UNASSIGNED):
            return block, path, 1
        return block, path, n

    def bmap(self, ino: Inode, lbn: int, actor: Optional[Actor] = None) -> int:
        """Current device address of logical block ``lbn`` (may be a hole).

        Negative ``lbn`` values name indirect blocks, following the
        4.4BSD convention.
        """
        if 0 <= lbn < NDADDR:
            return ino.db[lbn]
        plbn, index, _ = _locate(lbn)
        if plbn is None:
            return ino.ib[index - NDADDR]
        block = self._pointer_block(ino, plbn, actor or self.actor)
        return _PTR.unpack_from(block, index * 4)[0]

    def bmap_run(self, ino: Inode, lbn: int, n: int,
                 actor: Optional[Actor] = None) -> List[int]:
        """:meth:`bmap` of ``lbn .. lbn + n - 1``, which must share one
        pointer block: one walk to it, the other walks' touches counted
        (DESIGN.md "Segment writer runs")."""
        plbn, index, end = _locate(lbn)
        if lbn + n > end:
            raise InvalidArgument(f"run {lbn}+{n} crosses a pointer block")
        if plbn is None:
            ptrs, i = self._inode_ptrs(ino, index)
            return ptrs[i:i + n]
        actor = actor or self.actor
        out: List[int] = []
        while n:
            block, path, k = self._walk(ino, plbn, n, actor, create=False)
            if k > 1:
                self.bcache.repeat(path, k - 1)
            out += struct.unpack_from(f"<{k}I", block, index * 4)
            index += k
            n -= k
        return out

    def bmap_cached(self, ino: Inode, lbn: int) -> Optional[int]:
        """Like bmap, but consults only in-core state: returns None when
        resolving would require reading an indirect block.

        The read-ahead cluster sizing uses this so that deciding *whether*
        to read ahead can never itself fault in metadata (e.g. a
        tertiary-resident indirect block).
        """
        if 0 <= lbn < NDADDR:
            return ino.db[lbn]
        if lbn > MAX_LBN:
            return None
        plbn, index, _ = _locate(lbn)
        if plbn is None:
            return ino.ib[index - NDADDR]
        block = self.bcache.peek((ino.inum, plbn))
        if block is None:
            return None
        return _PTR.unpack_from(block, index * 4)[0]

    def bmap_cached_run(self, ino: Inode, lbn: int, n: int) -> List[int]:
        """:meth:`bmap_cached` of ``lbn .. lbn + n - 1``, up to the first
        block whose pointer is not in core: slices of the inode's and the
        buffered pointer blocks' pointers."""
        out: List[int] = []
        end = min(lbn + n, MAX_LBN + 1)
        while lbn < end:
            plbn, index, stop = _locate(lbn)
            k = min(stop, end) - lbn
            if plbn is None:
                ptrs, i = self._inode_ptrs(ino, index)
                out += ptrs[i:i + k]
            else:
                block = self.bcache.peek((ino.inum, plbn))
                if block is None:
                    break
                out += struct.unpack_from(f"<{k}I", block, index * 4)
            lbn += k
        return out

    def pointers_buffered(self, ino: Inode, lbn: int) -> bool:
        """Whether every pointer block on the way to ``lbn`` is buffered,
        so that bmaps and set_bmaps of its run only touch."""
        plbn = _locate(lbn)[0]
        return plbn is None or all(map(self.bcache.peek,
                                       self._path(ino.inum, plbn)))

    def pointer_runs(self, lbns: Sequence[int]) -> Iterator[Tuple[int, int]]:
        """Cut ``lbns`` into what the run primitives take: ``(i, j)`` for
        each run ``lbns[i:j]`` of consecutive logical blocks whose
        pointers share one pointer block."""
        i, total = 0, len(lbns)
        while i < total:
            first, j = lbns[i], i + 1
            if j < total and lbns[j] == first + 1:
                j = _consecutive(lbns, i,
                                 min(total, i + _locate(first)[2] - first))
            yield i, j
            i = j

    def set_bmap(self, ino: Inode, lbn: int, daddr: int,
                 actor: Optional[Actor] = None) -> int:
        """Point logical block ``lbn`` at ``daddr``; returns the old address.

        Dirties whatever index structure held the pointer, materialising
        indirect blocks as needed — those dirty indirect blocks are then
        appended to the log by the segment writer, exactly as in LFS.
        """
        return self.set_bmap_run(ino, lbn, (daddr,), actor)[0]

    def set_bmap_run(self, ino: Inode, lbn: int, daddrs: Sequence[int],
                     actor: Optional[Actor] = None) -> List[int]:
        """:meth:`set_bmap` of ``lbn, lbn + 1, …`` to ``daddrs``, which
        must share one pointer block; returns the old addresses.  One
        walk and one copy of the pointer block; the other walks' touches
        and re-puts are counted (DESIGN.md "Segment writer runs")."""
        n = len(daddrs)
        plbn, index, end = _locate(lbn)
        if lbn + n > end:
            raise InvalidArgument(f"run {lbn}+{n} crosses a pointer block")
        if plbn is None:
            ptrs, i = self._inode_ptrs(ino, index)
            olds = ptrs[i:i + n]
            ptrs[i:i + n] = daddrs
            self.mark_inode_dirty(ino.inum)
            return olds
        actor = actor or self.actor
        olds: List[int] = []
        pos = 0
        while pos < n:
            block, path, k = self._walk(ino, plbn, n - pos, actor,
                                        create=True)
            fmt = f"<{k}I"
            off = (index + pos) * 4
            olds += struct.unpack_from(fmt, block, off)
            view = memoryview(block)
            self.bcache.put(path[-1], b"".join(
                (view[:off], struct.pack(fmt, *daddrs[pos:pos + k]),
                 view[off + 4 * k:])), dirty=True)
            if k > 1:
                self.bcache.repeat(path, k - 1, reput=True)
            pos += k
        return olds

    # ------------------------------------------------------------------
    # Live-bytes accounting
    # ------------------------------------------------------------------

    def account_block_moved(self, old_daddr: int, new_daddr: int,
                            nbytes: int = BLOCK_SIZE) -> None:
        """Move ``nbytes`` of liveness from old_daddr's segment to new's."""
        self.account_blocks_moved((old_daddr,), (new_daddr,), nbytes)

    def account_blocks_moved(self, olds: Sequence[int], news: Sequence[int],
                             nbytes: int = BLOCK_SIZE) -> None:
        """:meth:`account_block_moved` of each ``(old, new)`` pair, in
        order, with one update per segment.

        ``k`` clamped subtractions are one subtraction of ``k * nbytes``
        clamped, so a segment blocks only leave (or only enter) settles
        at once.  A segment blocks both leave and enter — old copies in
        the current log segment — replays its steps in pair order, so
        the clamp at 0 falls where per-block accounting puts it.
        """
        moved: Dict[Optional[int], List[int]] = {}
        for segno, count in self._stretches(olds):
            moved.setdefault(segno, [0, 0])[0] += count
        for segno, count in self._stretches(news):
            moved.setdefault(segno, [0, 0])[1] += count
        for segno, (out, into) in moved.items():
            seg = None if segno is None else self._usage(segno)
            if seg is None:
                continue
            if out and into:
                live = seg.live_bytes
                for old, new in zip(self._segnos(olds), self._segnos(news)):
                    if old == segno:
                        live = max(0, live - nbytes)
                    if new == segno:
                        live += nbytes
                seg.live_bytes = live
            else:
                seg.live_bytes = (max(0, seg.live_bytes - out * nbytes)
                                  + into * nbytes)

    def _segnos(self, daddrs: Sequence[int]) -> List[Optional[int]]:
        """:meth:`segno_of` of each address (None for UNASSIGNED)."""
        return [segno for segno, count in self._stretches(daddrs)
                for _ in range(count)]

    def _stretches(self, daddrs: Sequence[int]
                   ) -> List[Tuple[Optional[int], int]]:
        """``(segno, count)`` per stretch of consecutive (or repeated)
        addresses in one segment, in order (segno None for UNASSIGNED)."""
        total = len(daddrs)
        out: List[Tuple[Optional[int], int]] = []
        i = 0
        while i < total:
            first = daddrs[i]
            if first == UNASSIGNED:  # new blocks: no old copy anywhere
                j = i + 1
                while j < total and daddrs[j] == UNASSIGNED:
                    j += 1
                out.append((None, j - i))
            else:
                j = i + 1
                if j < total and daddrs[j] == first + 1:
                    j = _consecutive(daddrs, i, total)
                else:  # or one address repeated: an inode block's inodes
                    while j < total and daddrs[j] == first:
                        j += 1
                segno = self.segno_of(first)
                if j - i == 1 or self.segno_of(daddrs[j - 1]) == segno:
                    out.append((segno, j - i))
                else:  # the stretch crosses a segment boundary
                    out += [(self.segno_of(d), 1) for d in daddrs[i:j]]
            i = j
        return out

    def _usage(self, segno: int) -> Optional[SegUse]:
        """The usage entry live bytes are kept in for segment ``segno``,
        or None for a segment no entry tracks."""
        return self.ifile.segs[segno] if 0 <= segno < self.ifile.nsegs \
            else None

    def seguse_for(self, segno: int):
        """Usage entry for a segment (HighLight extends to tertiary)."""
        return self.ifile.seguse(segno)

    # ------------------------------------------------------------------
    # Layout hooks of the shared UFS layer
    # ------------------------------------------------------------------

    def _place_run(self, ino: Inode, lbn: int, blocks: Sequence[bytes],
                   actor: Actor) -> int:
        """Buffer a prefix of ``blocks`` dirty at ``lbn`` on, counting each
        new block; returns its length.

        A block already buffered is only re-put.  Any other is bmapped
        first, to see whether it is new: a run of them under one pointer
        block is one walk, and every later block's walk touches that
        path just before its own put (DESIGN.md "Buffer cache recency").
        """
        inum, bcache = ino.inum, self.bcache
        if bcache.peek((inum, lbn)) is not None:
            return bcache.put_run(inum, lbn, blocks, dirty=True)
        plbn, index, end = _locate(lbn)
        n = min(len(blocks), end - lbn)
        if plbn is None:
            ptrs, i = self._inode_ptrs(ino, index)
            n = bcache.put_run(inum, lbn, blocks[:n], dirty=True)
            ptrs = ptrs[i:i + n]
        else:
            block, path, n = self._walk(ino, plbn, n, actor, create=False)
            n = bcache.put_run(inum, lbn, blocks[:n], dirty=True, touch=path)
            ptrs = struct.unpack_from(f"<{n}I", block, index * 4)
        ino.blocks += ptrs.count(UNASSIGNED)
        return n

    def _write_behind(self, actor: Actor) -> None:
        self.segwriter.flush(actor)

    def _destroy_inode(self, ino: Inode, actor: Actor) -> None:
        self._truncate_blocks(ino, 0, actor)
        self.bcache.invalidate_inode(ino.inum)
        self._inodes.pop(ino.inum, None)
        self._forget_names(ino.inum)
        self._dirty_inodes.discard(ino.inum)
        entry = self.ifile.imap_lookup(ino.inum)
        if entry is not None and entry.daddr != UNASSIGNED:
            seg = self._usage(self.segno_of(entry.daddr))
            if seg is not None:
                seg.live_bytes = max(0, seg.live_bytes - 128)
        self.ifile.free_inum(ino.inum)

    def _truncate_blocks(self, ino: Inode, new_size: int,
                         actor: Actor) -> None:
        """Release data blocks past ``new_size`` (liveness accounting)."""
        if ino.is_dir():
            self._forget_names(ino.inum)  # block count and bytes change
        first_dead = (new_size + BLOCK_SIZE - 1) // BLOCK_SIZE
        last = (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for lbn in range(first_dead, last):
            old = self.set_bmap(ino, lbn, UNASSIGNED, actor)
            if old != UNASSIGNED:
                self.account_block_moved(old, UNASSIGNED)
                ino.blocks = max(0, ino.blocks - 1)
            self.bcache.invalidate((ino.inum, lbn))
        ino.size = new_size
        self.mark_inode_dirty(ino.inum)

    # ------------------------------------------------------------------
    # Log management
    # ------------------------------------------------------------------

    def pick_clean_segment(self) -> int:
        """Next clean segment for the log (4.4BSD's selection algorithm)."""
        best = None
        for segno in self.ifile.clean_segments():
            if segno != self.cur_segno:
                best = segno if best is None else min(best, segno)
        if best is None:
            raise NoSpace("no clean segments left")
        return best

    def sync(self, actor: Optional[Actor] = None) -> None:
        """Flush all dirty data and metadata to the log (no checkpoint)."""
        self.segwriter.flush(actor or self.actor)

    def checkpoint(self, actor: Optional[Actor] = None) -> None:
        """Flush everything, then persist the ifile and superblock."""
        actor = actor or self.actor
        self.segwriter.flush(actor)
        self._write_ifile(actor)
        self.stats.checkpoints += 1

    def _write_ifile(self, actor: Actor) -> None:
        content = self.ifile.serialize()
        old_size = self.ifile_inode.size
        self.write(IFILE_INUM, 0, content, actor)
        if len(content) < old_size:
            self._truncate_blocks(self.ifile_inode, len(content), actor)
        self.ifile_inode.size = len(content)
        ifile_daddr = self.segwriter.flush(actor, include_ifile_inode=True)
        ckpt = Checkpoint(
            serial=self.sb.latest_checkpoint().serial + 1,
            ifile_daddr=ifile_daddr,
            log_daddr=self.log_position(),
            timestamp=actor.time,
        )
        self.sb.store_checkpoint(ckpt)
        self.dev_write(actor, Superblock.LOCATION, self.sb.pack())

    def log_position(self) -> int:
        """Device address where the next partial segment will start."""
        return self.seg_base(self.cur_segno) + self.cur_offset

    def _set_log_position(self, daddr: int) -> None:
        """Reposition the log tail (mount/recovery only)."""
        segno = self.segno_of(daddr)
        if not self.is_disk_segno(segno):
            raise InvalidArgument(f"log position {daddr} not on disk")
        self.cur_segno = segno
        self.cur_offset = daddr - self.seg_base(segno)

    # ------------------------------------------------------------------
    # Cleaner/migrator support calls (the lfs_bmapv / lfs_markv analogues)
    # ------------------------------------------------------------------

    def lfs_bmapv(self, items: List[Tuple[int, Optional[int], int]],
                  actor: Optional[Actor] = None) -> List[bool]:
        """For each (inum, lbn, daddr): is that block still live there?

        ``lbn is None`` asks about the *inode* itself (live if the imap
        still points at ``daddr``).  This is the call both the cleaner and
        the migrator use to validate candidate blocks (paper §6.7).
        Items that follow at ``lbn + 1, lbn + 2, …`` of the same file,
        under the same pointer block, are answered by one :meth:`bmap_run`.
        """
        actor = actor or self.actor
        out: List[bool] = []
        i, total = 0, len(items)
        while i < total:
            inum, lbn, daddr = items[i]
            i += 1
            if inum == IFILE_INUM:
                ino = self.ifile_inode
            else:
                entry = self.ifile.imap_lookup(inum)
                if entry is None or entry.daddr == UNASSIGNED:
                    out.append(False)
                    continue
                if lbn is None:
                    out.append(entry.daddr == daddr)
                    continue
                try:
                    ino = self.get_inode(inum, actor)
                except FileNotFound:
                    out.append(False)
                    continue
            if lbn is None:
                out.append(self.ifile.imap_lookup(inum) is not None
                           and self.ifile.imap_entry(inum).daddr == daddr)
                continue
            first, end = i - 1, _locate(lbn)[2]
            while (i < total and items[i][0] == inum
                   and items[i][1] == lbn + i - first and items[i][1] < end):
                i += 1
            ptrs = self.bmap_run(ino, lbn, i - first, actor)
            out += [ptr == item[2] for ptr, item in zip(ptrs, items[first:i])]
        return out

    def lfs_markv(self, items: List[Tuple[int, int, bytes]],
                  actor: Optional[Actor] = None) -> None:
        """Re-inject live blocks at the log tail (cleaner's rewrite call).

        Each item is (inum, lbn, data); the blocks become dirty buffers and
        the next flush relocates them, updating all index structures.
        """
        actor = actor or self.actor
        for inum, lbn, data in items:
            ino = self.get_inode(inum, actor)
            key = (inum, lbn)
            if self.bcache.is_dirty(key):
                # A newer in-memory copy exists; it will be written (and
                # kill the old on-media copy) at the next flush anyway.
                continue
            self.bcache.put(key, data, dirty=True)
            self.cpu.block_ops(actor, 1)
            self.mark_inode_dirty(inum)

    # -- statistics -------------------------------------------------------------

    def df(self) -> Dict[str, int]:
        """Segment-level space summary."""
        return {
            "segments": self.ifile.nsegs,
            "clean": self.ifile.clean_count(),
            "dirty": self.ifile.dirty_count(),
            "cached": sum(1 for s in self.ifile.segs if s.is_cached()),
            "live_bytes": sum(s.live_bytes for s in self.ifile.segs),
        }
