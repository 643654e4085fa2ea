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

from typing import List, Optional, Set, Tuple

from repro.errors import InvalidArgument
from repro.lfs.constants import BLOCK_SIZE, INODES_PER_BLOCK, UNASSIGNED
from repro.lfs.ifile import SEG_ACTIVE, SEG_CLEAN, SEG_DIRTY
from repro.lfs.inode import Inode, pack_inode_block
from repro.lfs.summary import SegmentSummary, SS_DIROP
from repro.sim.actor import Actor


class _PartialBuilder:
    """Accumulates one partial segment and emits it as a contiguous write."""

    def __init__(self, fs, actor: Actor) -> None:
        self.fs = fs
        self.actor = actor
        self._reset()

    def _reset(self) -> None:
        self.summary = SegmentSummary(create=self.actor.time)
        self.blocks: List[bytes] = []
        self.inode_blocks: List[bytes] = []

    @property
    def _bps(self) -> int:
        return self.fs.config.blocks_per_seg

    def _used(self) -> int:
        """Blocks this partial occupies so far (incl. its summary)."""
        if not self.blocks and not self.inode_blocks:
            return 0
        return 1 + len(self.blocks) + len(self.inode_blocks)

    def _room_for(self, nblocks: int) -> bool:
        used = self._used() or 1  # a fresh partial still needs its summary
        return self.fs.cur_offset + used + nblocks <= self._bps

    def _make_room(self, nblocks: int, inum: Optional[int]) -> None:
        """Emit/advance until the next item — ``nblocks`` blocks of file
        ``inum``, or one inode block when ``inum`` is None — fits in
        segment and summary."""
        size = self.fs.config.summary_size
        if self._room_for(nblocks) and (
                self.summary.fits(size, extra_inoblk=True) if inum is None
                else self.summary.fits_blocks(size, inum, nblocks)):
            return
        self.emit()
        if self.fs.cur_offset + 1 + nblocks > self._bps:
            self._advance_segment()

    def _advance_segment(self) -> None:
        fs = self.fs
        new_segno = fs.pick_clean_segment()
        old = fs.seguse_for(fs.cur_segno)
        old.flags &= ~SEG_ACTIVE
        new = fs.seguse_for(new_segno)
        new.flags = (new.flags & ~SEG_CLEAN) | SEG_DIRTY | SEG_ACTIVE
        fs.cur_segno = new_segno
        fs.cur_offset = 0
        fs.stats.segments_written += 1

    # -- adders --------------------------------------------------------------

    def add_block(self, inum: int, lbn: int, data: bytes,
                  lastlength: int = BLOCK_SIZE) -> int:
        """Place one file/indirect block; returns its assigned address."""
        if self.inode_blocks:
            # Phases guarantee data precedes inodes; a stray interleave
            # would corrupt the layout recovery expects, so split.
            self.emit()
        self._make_room(1, inum)
        daddr = (self.fs.seg_base(self.fs.cur_segno) + self.fs.cur_offset
                 + 1 + len(self.blocks))
        self.summary.add_blocks(inum, (lbn,), lastlength)
        self.blocks.append(data)
        return daddr

    def add_inode_block(self, inodes: List[Inode]) -> int:
        """Place one inode block; returns its assigned address."""
        self._make_room(1, None)
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
        if self._bps - end < 2:
            next_segno = fs.pick_clean_segment()
            next_daddr = fs.seg_base(next_segno)
            seal_segment = True
        else:
            next_daddr = fs.seg_base(fs.cur_segno) + end
            seal_segment = False
        self.summary.next_daddr = next_daddr
        payload = self.blocks + self.inode_blocks
        self.summary.compute_datasum(payload)
        raw_summary = self.summary.pack(fs.config.summary_size)
        summary_block = raw_summary.ljust(BLOCK_SIZE, b"\0")
        parts = [summary_block] + payload
        nbytes = sum(len(p) for p in parts)
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
        if seal_segment:
            self._advance_segment()
        self._reset()


class SegmentWriter:
    """Drives flushes of the buffer cache into the log."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self._ifile_inode_daddr = UNASSIGNED

    # -- helpers ---------------------------------------------------------------

    def _lastlength(self, ino: Inode, lbn: int) -> int:
        """Valid bytes of (ino, lbn): short only for the file's last block."""
        if lbn < 0:
            return BLOCK_SIZE
        end = (lbn + 1) * BLOCK_SIZE
        if end <= ino.size:
            return BLOCK_SIZE
        rem = ino.size - lbn * BLOCK_SIZE
        return max(0, min(BLOCK_SIZE, rem)) or BLOCK_SIZE

    def flush(self, actor: Optional[Actor] = None,
              include_ifile_inode: bool = False) -> int:
        """Write all dirty state to the log.

        Returns the device address of the inode block holding the ifile's
        inode when ``include_ifile_inode`` is set (checkpoint path), else
        UNASSIGNED.
        """
        fs = self.fs
        actor = actor or fs.actor
        builder = _PartialBuilder(fs, actor)

        # Phase A: data blocks.
        data_bufs = sorted(
            (b for b in fs.bcache.dirty_buffers() if b.key[1] >= 0),
            key=lambda b: b.key)
        for buf in data_bufs:
            inum, lbn = buf.key
            ino = fs.get_inode(inum, actor)
            old = fs.bmap(ino, lbn, actor)
            daddr = builder.add_block(inum, lbn, buf.data,
                                      self._lastlength(ino, lbn))
            if ino.is_dir():
                # ss_flags marks partials carrying directory operations.
                builder.summary.flags |= SS_DIROP
            fs.set_bmap(ino, lbn, daddr, actor)
            fs.account_block_moved(old, daddr)
            fs.bcache.mark_clean(buf.key)

        # Phase B: indirect blocks, children before roots; iterate to a
        # fixed point because writing a child dirties its root.
        written: Set[Tuple[int, int]] = set()
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
                old = fs.bmap(ino, lbn, actor)
                daddr = builder.add_block(inum, lbn, buf.data)
                fs.set_bmap(ino, lbn, daddr, actor)
                fs.account_block_moved(old, daddr)
                fs.bcache.mark_clean(buf.key)
                written.add(buf.key)

        # Phase C: inode blocks.
        dirty_inums = sorted(fs._dirty_inodes)
        fs._dirty_inodes.clear()
        for start in range(0, len(dirty_inums), INODES_PER_BLOCK):
            chunk = dirty_inums[start:start + INODES_PER_BLOCK]
            inodes = [fs.get_inode(inum, actor) for inum in chunk]
            daddr = builder.add_inode_block(inodes)
            for ino in inodes:
                entry = fs.ifile.imap_lookup(ino.inum)
                if entry is None:
                    continue  # unlinked while dirty
                fs.account_block_moved(entry.daddr, daddr, nbytes=128)
                entry.daddr = daddr

        ifile_daddr = UNASSIGNED
        if include_ifile_inode:
            ifile_daddr = builder.add_inode_block([fs.ifile_inode])
            fs.account_block_moved(self._ifile_inode_daddr, ifile_daddr,
                                   nbytes=128)
            self._ifile_inode_daddr = ifile_daddr

        builder.emit()
        return ifile_daddr
