"""The per-block reference model of the segment writer's run path.

:class:`PerBlockLFS` is an :class:`~repro.lfs.filesystem.LFS` whose flush
relocates data one block at a time — one ``bmap``, one room check, one
``set_bmap`` and one ``account_block_moved`` per block — and whose
``lfs_bmapv`` answers one item at a time: the obviously-right form the
shipped run path (DESIGN.md "Segment writer runs") must equal.
``tests/test_segwriter_runs.py`` drives both through the same seeded
operations and compares everything a caller or a virtual-time number can
observe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import FileNotFound
from repro.lfs.constants import (BLOCK_SIZE, IFILE_INUM, INODES_PER_BLOCK,
                                 UNASSIGNED)
from repro.lfs.filesystem import LFS
from repro.lfs.segwriter import SegmentWriter, _PartialBuilder
from repro.lfs.summary import SS_DIROP
from repro.sim.actor import Actor


class PerBlockBuilder(_PartialBuilder):
    """Placement with one room check per block."""

    def add_run(self, inum: int, lbns: Sequence[int], blocks: Sequence[bytes],
                lastlength: int = BLOCK_SIZE, flags: int = 0) -> List[int]:
        fs = self.fs
        daddrs = []
        for i, (lbn, data) in enumerate(zip(lbns, blocks)):
            if self.inode_blocks:
                self.emit()
            summary = self.summary
            new_file = not summary.finfos or summary.finfos[-1].ino != inum
            used = self._used() or 1
            if not (fs.cur_offset + used + 1 <= self._bps and summary.fits(
                    fs.config.summary_size, extra_file=new_file,
                    extra_blocks=1)):
                self.emit()
                if fs.cur_offset + 2 > self._bps:
                    self._advance_segment()
            daddrs.append(fs.seg_base(fs.cur_segno) + fs.cur_offset + 1
                          + len(self.blocks))
            self.summary.add_blocks(
                inum, (lbn,), lastlength if i == len(lbns) - 1
                else BLOCK_SIZE)
            self.summary.flags |= flags
            self.blocks.append(data)
        return daddrs


class PerBlockWriter(SegmentWriter):
    """Every phase one block (or one inode) at a time."""

    def flush(self, actor: Optional[Actor] = None,
              include_ifile_inode: bool = False) -> int:
        fs = self.fs
        actor = actor or fs.actor
        builder = PerBlockBuilder(fs, actor)
        for buf in sorted((b for b in fs.bcache.dirty_buffers()
                           if b.key[1] >= 0), key=lambda b: b.key):
            inum, lbn = buf.key
            ino = fs.get_inode(inum, actor)
            old = fs.bmap(ino, lbn, actor)
            [daddr] = builder.add_run(inum, [lbn], [buf.data],
                                      ino.lastlength(lbn),
                                      SS_DIROP if ino.is_dir() else 0)
            fs.set_bmap(ino, lbn, daddr, actor)
            fs.account_block_moved(old, daddr)
            fs.bcache.mark_clean(buf.key)
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
                [daddr] = builder.add_run(inum, [lbn], [buf.data])
                fs.set_bmap(ino, lbn, daddr, actor)
                fs.account_block_moved(old, daddr)
                fs.bcache.mark_clean(buf.key)
                written.add(buf.key)
        dirty_inums = sorted(fs._dirty_inodes)
        fs._dirty_inodes.clear()
        for start in range(0, len(dirty_inums), INODES_PER_BLOCK):
            chunk = dirty_inums[start:start + INODES_PER_BLOCK]
            inodes = [fs.get_inode(inum, actor) for inum in chunk]
            daddr = builder.add_inode_block(inodes)
            for ino in inodes:
                entry = fs.ifile.imap_lookup(ino.inum)
                if entry is None:
                    continue
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


class PerBlockLFS(LFS):
    """An LFS that flushes and answers ``lfs_bmapv`` block by block."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.segwriter = PerBlockWriter(self)

    def account_block_moved(self, old_daddr: int, new_daddr: int,
                            nbytes: int = BLOCK_SIZE) -> None:
        if old_daddr != UNASSIGNED:
            seg = self._usage(self.segno_of(old_daddr))
            if seg is not None:
                seg.live_bytes = max(0, seg.live_bytes - nbytes)
        if new_daddr != UNASSIGNED:
            seg = self._usage(self.segno_of(new_daddr))
            if seg is not None:
                seg.live_bytes += nbytes

    def lfs_bmapv(self, items: List[Tuple[int, Optional[int], int]],
                  actor: Optional[Actor] = None) -> List[bool]:
        actor = actor or self.actor
        out = []
        for inum, lbn, daddr in items:
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
            out.append(self.bmap(ino, lbn, actor) == daddr)
        return out
