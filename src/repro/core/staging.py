"""Staging segments: fresh tertiary segments assembled in disk cache lines.

"The to-be-migrated data are moved to an LFS segment in a staging area ...
assembled on-disk in a dirty cache line, using the same mechanism used by
the cleaner ... addressed by the block numbers the segment will use on the
tertiary volume" (paper §4, §6.2).  Block content accumulates in memory
and is spilled to the disk line in chunks (those spills are the migrator's
share of the Table 6 arm contention); the summary block is written last,
once the catalogue and checksums are final.
"""

from __future__ import annotations

from typing import List, Optional

from repro.blockdev.datapath import Buffer, ExtentRef, count_copy
from repro.core.addressing import line_writev
from repro.errors import InvalidArgument
from repro.lfs.constants import BLOCK_SIZE
from repro.lfs.inode import Inode, pack_inode_block
from repro.lfs.summary import SegmentSummary
from repro.sim.actor import Actor


#: Payload blocks per spill write to the disk line (and the longest run
#: of contiguous blocks the migrator reads from the log in one go).
SPILL_CHUNK_BLOCKS = 16


class StagingBuilder:
    """Assembles one tertiary segment inside a disk cache line.

    Payload accumulates append-only into one preallocated segment-sized
    buffer (the single gather copy of the whole migration data path);
    spills hand already-written regions of that buffer to the disk store
    by reference, and nothing ever mutates a handed-over region again.
    """

    def __init__(self, fs, tsegno: int, disk_segno: int) -> None:
        self.fs = fs
        self.tsegno = tsegno
        self.disk_segno = disk_segno
        self.summary = SegmentSummary()
        self._buf = bytearray(
            (fs.config.blocks_per_seg - 1) * BLOCK_SIZE)
        self._nblocks = 0                    # payload blocks accumulated
        self._spilled = 0                    # payload blocks already on disk
        self.finalized = False

    @property
    def blocks(self) -> List[memoryview]:
        """Per-block views of the accumulated payload, in order."""
        mv = memoryview(self._buf)
        return [mv[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE]
                for i in range(self._nblocks)]

    def _append(self, data: Buffer) -> None:
        if len(data) != BLOCK_SIZE:
            raise InvalidArgument(
                f"staged block must be exactly {BLOCK_SIZE} bytes, "
                f"got {len(data)}")
        off = self._nblocks * BLOCK_SIZE
        self._buf[off:off + BLOCK_SIZE] = data
        count_copy(BLOCK_SIZE)
        self._nblocks += 1

    # -- geometry ---------------------------------------------------------------

    @property
    def _bps(self) -> int:
        return self.fs.config.blocks_per_seg

    @property
    def tseg_base(self) -> int:
        return self.fs.aspace.seg_base(self.tsegno)

    @property
    def line_base(self) -> int:
        return self.fs.aspace.seg_base(self.disk_segno)

    def payload_capacity(self) -> int:
        return self._bps - 1  # one block reserved for the summary

    def is_full(self) -> bool:
        return self._nblocks >= self.payload_capacity()

    def blocks_that_fit(self, inum: int) -> int:
        """How many more blocks of file ``inum`` fit, in payload and in
        the summary."""
        return min(self.payload_capacity() - self._nblocks,
                   self.summary.blocks_that_fit(self.fs.config.summary_size,
                                                inum))

    def room_for_inode_block(self) -> bool:
        if self.is_full():
            return False
        return self.summary.fits(self.fs.config.summary_size,
                                 extra_inoblk=True)

    # -- adders -------------------------------------------------------------------

    def add_block(self, inum: int, lbn: int, data: Buffer,
                  lastlength: int = BLOCK_SIZE) -> int:
        """Append a file/indirect block; returns its *tertiary* address."""
        return self.add_block_views(inum, [lbn], [data], lastlength)

    def add_block_views(self, inum: int, lbns: List[int],
                        views: List[Buffer],
                        lastlength: int = BLOCK_SIZE) -> int:
        """Append blocks ``lbns`` of one file from per-block buffers (the
        shape ``block_views`` hands back); returns the tertiary address
        of the first.  One room check and one summary update for the
        whole batch; ``lastlength`` describes its *final* block.  Every
        check runs before the first byte is copied, so a refused batch
        leaves the builder untouched.
        """
        if self.finalized:
            raise InvalidArgument("staging segment already finalized")
        k = len(lbns)
        if len(views) != k:
            raise InvalidArgument(
                f"{k} lbns but {len(views)} block buffers")
        for v in views:
            if len(v) != BLOCK_SIZE:
                raise InvalidArgument(
                    f"staged block must be exactly {BLOCK_SIZE} bytes, "
                    f"got {len(v)}")
        if k > self.blocks_that_fit(inum):
            raise InvalidArgument("staging segment is full")
        daddr = self.tseg_base + 1 + self._nblocks
        off = self._nblocks * BLOCK_SIZE
        for v in views:
            self._buf[off:off + BLOCK_SIZE] = v
            off += BLOCK_SIZE
        count_copy(k * BLOCK_SIZE)
        self._nblocks += k
        self.summary.add_blocks(inum, lbns, lastlength)
        return daddr

    def add_inode_block(self, inodes: List[Inode]) -> int:
        """Append an inode block; returns its tertiary address."""
        if self.finalized:
            raise InvalidArgument("staging segment already finalized")
        if not self.room_for_inode_block():
            raise InvalidArgument("staging segment is full")
        daddr = self.tseg_base + 1 + self._nblocks
        self._append(pack_inode_block(inodes))
        self.summary.inode_daddrs.append(daddr)
        return daddr

    # -- spilling to the disk line ---------------------------------------------------

    def pending_spill_blocks(self) -> int:
        return self._nblocks - self._spilled

    def spill(self, actor: Actor, all_pending: bool = False) -> bool:
        """Write buffered payload blocks to the disk line.

        Returns True if a disk write happened.  Spills happen one chunk at
        a time unless ``all_pending`` forces a complete drain.
        """
        wrote = False
        while (self.pending_spill_blocks() >= SPILL_CHUNK_BLOCKS
               or (all_pending and self.pending_spill_blocks() > 0)):
            take = min(SPILL_CHUNK_BLOCKS, self.pending_spill_blocks())
            nbytes = take * BLOCK_SIZE
            # The gather copy's virtual cost (paper's cleaner-style staging
            # charge); the host-side gather already happened at append time.
            self.fs.cpu.copy(actor, nbytes)
            line_writev(
                self.fs.disk, actor, self.line_base + 1 + self._spilled,
                [ExtentRef(self._buf, self._spilled * BLOCK_SIZE, nbytes)],
                self.fs.aspace)
            self._spilled += take
            wrote = True
            if not all_pending:
                break
        return wrote

    # -- finalisation ------------------------------------------------------------------

    def finalize(self, actor: Actor,
                 next_tseg_daddr: Optional[int] = None) -> None:
        """Drain spills, then write the summary block at the line head."""
        if self.finalized:
            return
        self.spill(actor, all_pending=True)
        self.summary.create = actor.time
        if next_tseg_daddr is not None:
            self.summary.next_daddr = next_tseg_daddr
        self.summary.compute_datasum(self.blocks)
        raw = self.summary.pack(self.fs.config.summary_size)
        self.fs.cpu.copy(actor, BLOCK_SIZE)
        line_writev(self.fs.disk, actor, self.line_base,
                    [raw.ljust(BLOCK_SIZE, b"\0")], self.fs.aspace)
        self.finalized = True

    def used_bytes(self) -> int:
        return (1 + self._nblocks) * BLOCK_SIZE
