"""The segment writer: appends partial segments to the log tail.

Gathers dirty blocks into partial segments — summary block first, then the
described file/indirect blocks, then inode blocks — and writes each partial
as one contiguous device operation (the large sequential transfers that
motivate the whole design).  The gather step pays a memory copy into the
staging buffer on the host CPU; that copy is the paper's explanation for
LFS losing to FFS on sequential writes (§7.1).

Flush ordering guarantees within one call:
  phase A: data blocks (lbn >= 0), which dirties index structures;
  phase B: indirect blocks, children before roots (ascending negative lbn);
  phase C: inode blocks, updating the inode map;
  finally (checkpoint only) the ifile's own inode.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidArgument
from repro.lfs.buffercache import Buffer
from repro.lfs.constants import BLOCK_SIZE, INODES_PER_BLOCK, UNASSIGNED
from repro.lfs.ifile import SEG_ACTIVE, SEG_CLEAN, SEG_DIRTY
from repro.lfs.inode import Inode, pack_inode_block
from repro.lfs.summary import SegmentSummary, SS_DIROP
from repro.sim.actor import Actor

_data_of = attrgetter("data")
_key_of = attrgetter("key")


class _PartialBuilder:
    """Accumulates one partial segment and emits it as a contiguous write."""

    def __init__(self, fs, actor: Actor) -> None:
        self.fs = fs
        self.actor = actor
        self._bps = fs.config.blocks_per_seg
        self._reset()

    def _reset(self) -> None:
        self.summary = SegmentSummary(create=self.actor.time)
        self.blocks: List[bytes] = []
        self.inode_blocks: List[bytes] = []

    def _used(self) -> int:
        """Blocks this partial occupies so far (incl. its summary)."""
        if not self.blocks and not self.inode_blocks:
            return 0
        return 1 + len(self.blocks) + len(self.inode_blocks)

    def _room(self) -> int:
        """Blocks the segment still holds for this partial (a fresh
        partial still needs its summary)."""
        return self._bps - self.fs.cur_offset - (self._used() or 1)

    def _next_partial(self) -> None:
        """Emit this partial; move to a clean segment when this one has
        no room left for a summary and one block."""
        self.emit()
        if self.fs.cur_offset + 2 > self._bps:
            self._advance_segment()

    def _advance_segment(self, new_segno: Optional[int] = None) -> None:
        """Make a clean segment the log's current one: ``new_segno`` when
        emit already picked it to thread the log, else the next pick."""
        fs = self.fs
        if new_segno is None:
            new_segno = fs.pick_clean_segment()
        old = fs.seguse_for(fs.cur_segno)
        old.flags &= ~SEG_ACTIVE
        new = fs.seguse_for(new_segno)
        new.flags = (new.flags & ~SEG_CLEAN) | SEG_DIRTY | SEG_ACTIVE
        fs.cur_segno = new_segno
        fs.cur_offset = 0
        fs.stats.segments_written += 1

    # -- adders --------------------------------------------------------------

    def add_run(self, inum: int, lbns: Sequence[int], blocks: Sequence[bytes],
                lastlength: int = BLOCK_SIZE, flags: int = 0) -> List[int]:
        """Place blocks ``lbns`` of file ``inum`` in order; returns their
        assigned addresses.

        Each chunk is as many blocks as the open partial still holds in
        its segment and in its summary, so the run splits exactly where
        one-block placement would have emitted (or sealed) and opened
        the next partial.  ``lastlength`` is the last block's; every
        partial the run lands in gets ``flags`` (``SS_DIROP``).
        """
        if self.inode_blocks:
            # Phases guarantee data precedes inodes; a stray interleave
            # would corrupt the layout recovery expects, so split.
            self.emit()
        fs = self.fs
        size = fs.config.summary_size
        daddrs: List[int] = []
        pos, total = 0, len(lbns)
        while pos < total:
            take = min(total - pos, self._room(),
                       self.summary.blocks_that_fit(size, inum))
            if take <= 0:
                self._next_partial()
                continue
            end = pos + take
            first = (fs.seg_base(fs.cur_segno) + fs.cur_offset + 1
                     + len(self.blocks))
            self.summary.add_blocks(
                inum, lbns[pos:end],
                lastlength if end == total else BLOCK_SIZE)
            self.summary.flags |= flags
            self.blocks += blocks[pos:end]
            daddrs += range(first, first + take)
            pos = end
        return daddrs

    def add_inode_block(self, inodes: List[Inode]) -> int:
        """Place one inode block; returns its assigned address."""
        if self._room() < 1 or not self.summary.fits(
                self.fs.config.summary_size, extra_inoblk=True):
            self._next_partial()
        daddr = (self.fs.seg_base(self.fs.cur_segno) + self.fs.cur_offset
                 + 1 + len(self.blocks) + len(self.inode_blocks))
        self.inode_blocks.append(pack_inode_block(inodes))
        self.summary.inode_daddrs.append(daddr)
        return daddr

    # -- emission -------------------------------------------------------------

    def emit(self) -> None:
        """Write the accumulated partial segment to the device."""
        fs = self.fs
        used = self._used()
        if used == 0:
            return
        end = fs.cur_offset + used
        if end > self._bps:
            raise InvalidArgument("partial segment overflows its segment")
        # Thread the log: where will the *next* partial start?
        if self._bps - end < 2:  # sealed: the next opens a clean segment
            next_segno: Optional[int] = fs.pick_clean_segment()
            next_daddr = fs.seg_base(next_segno)
        else:
            next_segno = None
            next_daddr = fs.seg_base(fs.cur_segno) + end
        self.summary.next_daddr = next_daddr
        payload = self.blocks + self.inode_blocks
        self.summary.compute_datasum(payload)
        raw_summary = self.summary.pack(fs.config.summary_size)
        summary_block = raw_summary.ljust(BLOCK_SIZE, b"\0")
        parts = [summary_block] + payload
        nbytes = sum(map(len, parts))
        # The staging copy's virtual cost: LFS "copies block buffers into
        # a staging area before writing to disk, so that the disk driver
        # can do a single large transfer" (paper §7.1).  The host-side
        # gather is gone — the device adopts the immutable blocks as one
        # vectored write — but the simulated machine still pays for it.
        fs.cpu.copy(self.actor, nbytes)
        fs.dev_writev(self.actor, fs.seg_base(fs.cur_segno) + fs.cur_offset,
                      parts)
        seg = fs.seguse_for(fs.cur_segno)
        seg.flags = (seg.flags & ~SEG_CLEAN) | SEG_DIRTY
        seg.lastmod = self.actor.time
        fs.stats.partials_written += 1
        fs.cur_offset = end
        if next_segno is not None:
            self._advance_segment(next_segno)
        self._reset()


class SegmentWriter:
    """Drives flushes of the buffer cache into the log."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self._ifile_inode_daddr = UNASSIGNED

    def flush(self, actor: Optional[Actor] = None,
              include_ifile_inode: bool = False) -> int:
        """Write all dirty state to the log.

        Returns the device address of the inode block holding the ifile's
        inode when ``include_ifile_inode`` is set (checkpoint path), else
        UNASSIGNED.
        """
        actor = actor or self.fs.actor
        builder = _PartialBuilder(self.fs, actor)
        self._write_data(builder, actor)
        self._write_indirect(builder, actor)
        ifile_daddr = self._write_inodes(builder, actor, include_ifile_inode)
        builder.emit()
        return ifile_daddr

    def _write_data(self, builder: _PartialBuilder, actor: Actor) -> None:
        """Phase A: each file's dirty data blocks in lbn order, a run of
        consecutive blocks under one pointer block at a time.  Live bytes
        move once, after the last run: nothing reads them while blocks
        are placed (DESIGN.md "Segment writer runs")."""
        fs = self.fs
        olds: List[int] = []
        news: List[int] = []
        dirty = [b for b in fs.bcache.dirty_by_key() if b.key[1] >= 0]
        for inum, group in groupby(dirty, key=lambda b: b.key[0]):
            ino = fs.get_inode(inum, actor)
            bufs = list(group)
            for i, j in fs.pointer_runs([b.key[1] for b in bufs]):
                self._write_run(builder, ino, bufs[i:j], actor, olds, news)
        fs.account_blocks_moved(olds, news)

    def _write_run(self, builder: _PartialBuilder, ino: Inode,
                   bufs: List[Buffer], actor: Actor, olds: List[int],
                   news: List[int]) -> None:
        """Relocate one run as block-at-a-time relocation would: the same
        device operations in the same order, the same cache touches and
        summaries (DESIGN.md "Segment writer runs"); its old and new
        addresses go on ``olds`` and ``news``.

        While a pointer block on the way is not buffered, the first
        block goes alone — its bmap reads the pointer block, or its
        set_bmap materialises it — and only then are the other blocks'
        walks mere touches.
        """
        fs = self.fs
        flags = SS_DIROP if ino.is_dir() else 0
        while bufs:
            k = len(bufs) if fs.pointers_buffered(ino, bufs[0].key[1]) else 1
            run, bufs = bufs[:k], bufs[k:]
            lbn = run[0].key[1]
            olds += fs.bmap_run(ino, lbn, k, actor)
            daddrs = builder.add_run(ino.inum, range(lbn, lbn + k),
                                     list(map(_data_of, run)),
                                     ino.lastlength(lbn + k - 1), flags)
            fs.set_bmap_run(ino, lbn, daddrs, actor)
            news += daddrs
            fs.bcache.mark_clean(*map(_key_of, run))

    def _write_indirect(self, builder: _PartialBuilder, actor: Actor) -> None:
        """Phase B: indirect blocks, children before roots; iterate to a
        fixed point because writing a child dirties its root."""
        fs = self.fs
        written: Set[Tuple[int, int]] = set()
        olds: List[int] = []
        news: List[int] = []
        while True:
            ind_bufs = sorted(
                (b for b in fs.bcache.dirty_buffers()
                 if b.key[1] < 0 and b.key not in written),
                key=lambda b: b.key[1])
            if not ind_bufs:
                break
            for buf in ind_bufs:
                inum, lbn = buf.key
                ino = fs.get_inode(inum, actor)
                olds.append(fs.bmap(ino, lbn, actor))
                daddr = builder.add_run(inum, (lbn,), (buf.data,))[0]
                fs.set_bmap(ino, lbn, daddr, actor)
                news.append(daddr)
                fs.bcache.mark_clean(buf.key)
                written.add(buf.key)
        fs.account_blocks_moved(olds, news)

    def _write_inodes(self, builder: _PartialBuilder, actor: Actor,
                      include_ifile_inode: bool) -> int:
        """Phase C: inode blocks, then (checkpoint only) the ifile's own
        inode, whose address is returned (else UNASSIGNED)."""
        fs = self.fs
        dirty_inums = sorted(fs._dirty_inodes)
        fs._dirty_inodes.clear()
        for start in range(0, len(dirty_inums), INODES_PER_BLOCK):
            chunk = dirty_inums[start:start + INODES_PER_BLOCK]
            inodes = [fs.get_inode(inum, actor) for inum in chunk]
            daddr = builder.add_inode_block(inodes)
            # An inode unlinked while dirty has no entry left.
            entries = [entry for entry in map(fs.ifile.imap_lookup, chunk)
                       if entry is not None]
            fs.account_blocks_moved([entry.daddr for entry in entries],
                                    [daddr] * len(entries), nbytes=128)
            for entry in entries:
                entry.daddr = daddr

        if not include_ifile_inode:
            return UNASSIGNED
        ifile_daddr = builder.add_inode_block([fs.ifile_inode])
        fs.account_block_moved(self._ifile_inode_daddr, ifile_daddr,
                               nbytes=128)
        self._ifile_inode_daddr = ifile_daddr
        return ifile_daddr
