"""Mounting and roll-forward recovery.

"During recovery the threaded log is used to roll forward from the last
checkpoint ... When an incomplete partial segment is found, recovery is
complete and the state of the filesystem is the state as of the last
complete partial segment" (paper §3).

The stop conditions are: an unparseable or checksum-failing summary, a
summary whose creation stamp predates the checkpoint (a stale summary from
an earlier life of the segment), a failing data checksum, or an address
that leaves the managed space.
"""

from __future__ import annotations

from typing import Optional

from repro.blockdev.base import BlockDevice, CPUModel
from repro.errors import AddressError
from repro.lfs.constants import BLOCK_SIZE, IFILE_INUM, UNASSIGNED
from repro.lfs.ifile import IFile, IMapEntry, SEG_ACTIVE, SEG_CLEAN, SEG_DIRTY
from repro.lfs.inode import Inode, find_inode_in_block, unpack_inode_block
from repro.lfs.summary import SegmentSummary
from repro.lfs.superblock import Superblock
from repro.sim.actor import Actor

#: ss_create is stored in centiseconds; allow that much rounding slack
#: when comparing against the checkpoint's float timestamp.
_STAMP_SLACK = 0.011


def read_file_raw(fs, ino: Inode, actor: Actor) -> bytes:
    """Read a file's content straight from the device (no cache warm-up)."""
    out = bytearray()
    nblocks = (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE
    for lbn in range(nblocks):
        daddr = fs.bmap(ino, lbn, actor)
        if daddr == UNASSIGNED:
            out += bytes(BLOCK_SIZE)
        else:
            out += fs.dev_read(actor, daddr, 1)
    return bytes(out[:ino.size])


def mount(cls, device: BlockDevice, config=None,
          cpu: Optional[CPUModel] = None,
          actor: Optional[Actor] = None):
    """Mount an existing LFS from ``device`` (used by ``LFS.mount``)."""
    fs = cls(device, config, cpu, actor)
    actor = fs.actor
    fs.sb = Superblock.unpack(fs.dev_read(actor, Superblock.LOCATION, 1))
    # Geometry lives on the medium, not in the caller's config.
    fs.config.segment_size = fs.sb.segment_size
    ckpt = fs.sb.latest_checkpoint()

    inoblk = fs.dev_read(actor, ckpt.ifile_daddr, 1)
    fs.ifile_inode = find_inode_in_block(inoblk, IFILE_INUM)
    fs.segwriter._ifile_inode_daddr = ckpt.ifile_daddr
    content = read_file_raw(fs, fs.ifile_inode, actor)
    fs.ifile = IFile.deserialize(content)

    fs._set_log_position(ckpt.log_daddr)
    fs._mounted = True
    roll_forward(fs, ckpt.log_daddr, ckpt.timestamp, actor)

    # Exactly one segment is active: the log tail recovery settled on.
    # (Roll-forward may have moved the tail past the checkpoint-era
    # active segment, whose stale flag must not survive.)
    for seg in fs.ifile.segs:
        seg.flags &= ~SEG_ACTIVE
    seg = fs.seguse_for(fs.cur_segno)
    seg.flags = (seg.flags & ~SEG_CLEAN) | SEG_DIRTY | SEG_ACTIVE
    return fs


def roll_forward(fs, start_daddr: int, since: float, actor: Actor) -> int:
    """Replay complete partial segments written after the checkpoint.

    Returns the number of partial segments applied and leaves the
    filesystem's log position at the first unreplayable address.
    """
    pos = start_daddr
    applied = 0
    while True:
        if pos == UNASSIGNED or not _plausible_position(fs, pos):
            break
        try:
            raw = fs.dev_read(actor, pos, 1)
        except AddressError:
            break
        summary = SegmentSummary.try_unpack(raw, fs.config.summary_size)
        if summary is None:
            break
        if summary.create < since - _STAMP_SLACK:
            break  # stale summary from a previous life of this segment
        ndata = summary.ndata_blocks()
        ninode = len(summary.inode_daddrs)
        blocks = []
        if ndata + ninode:
            try:
                payload = fs.dev_read(actor, pos + 1, ndata + ninode)
            except AddressError:
                break
            blocks = [payload[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE]
                      for i in range(ndata + ninode)]
        if not summary.verify_datasum(blocks):
            break  # torn partial segment: recovery stops here

        _apply_partial(fs, pos, summary, blocks, ndata)
        applied += 1
        pos = summary.next_daddr

    if pos != UNASSIGNED and _plausible_position(fs, pos):
        fs._set_log_position(pos)
    return applied


def _plausible_position(fs, daddr: int) -> bool:
    segno = fs.segno_of(daddr)
    if not fs.is_disk_segno(segno):
        return False
    offset = daddr - fs.seg_base(segno)
    return 0 <= offset < fs.config.blocks_per_seg


def _apply_partial(fs, pos: int, summary: SegmentSummary,
                   blocks, ndata: int) -> None:
    """Fold one replayed partial segment into the in-memory state."""
    for idx, daddr in enumerate(summary.inode_daddrs):
        blk = blocks[ndata + idx]
        for ino in unpack_inode_block(blk):
            if ino.inum == IFILE_INUM:
                fs.ifile_inode = ino
                fs.segwriter._ifile_inode_daddr = daddr
                continue
            entry = fs.ifile.imap.get(ino.inum)
            if entry is None:
                entry = IMapEntry(version=ino.gen)
                fs.ifile.imap[ino.inum] = entry
            entry.daddr = daddr
            fs._inodes[ino.inum] = ino
            fs._forget_names(ino.inum)  # parsed from the replaced inode
            # The checkpointed ifile predates this inode: advance the
            # allocator so post-recovery creates cannot collide with it.
            if ino.inum >= fs.ifile._next_inum:
                fs.ifile._next_inum = ino.inum + 1
    segno = fs.segno_of(pos)
    seg = fs.seguse_for(segno)
    seg.flags = (seg.flags & ~SEG_CLEAN) | SEG_DIRTY
    # Liveness is re-added optimistically; stale prior copies are left to
    # the cleaner, whose bmapv verification is authoritative anyway.
    seg.live_bytes += ndata * BLOCK_SIZE + 128 * len(summary.inode_daddrs)
    seg.lastmod = max(seg.lastmod, summary.create)
