"""Partial-segment summary blocks (paper Table 1).

Each partial segment — the atomic unit of a log append — begins with a
summary block cataloguing its contents: per-file FINFO records describing
the data blocks present, and the device addresses of the inode blocks.
Field sizes follow Table 1 exactly:

    ss_sumsum   4   check sum of summary block
    ss_datasum  4   check sum of data
    ss_next     4   disk address of next segment in log
    ss_create   4   creation time stamp
    ss_nfinfo   2   number of file info structures
    ss_ninos    2   number of inodes in summary
    ss_flags    2   flags; used for directory operations
    ss_pad      2   word alignment
    ...        12   per distinct file + 4 per file block   (FINFO)
    ...         4   per inode block (disk addresses, from the end backward)

``ss_create`` is a 32-bit centisecond virtual timestamp (keeps the Table 1
field width while retaining sub-second ordering).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import ChecksumError, InvalidArgument
from repro.lfs.constants import SUMMARY_MAGIC, UNASSIGNED
from repro.util.checksum import cksum32, cksum_blocks

_HEADER = struct.Struct("<IIIIHHHH")
HEADER_SIZE = _HEADER.size  # 24 bytes

#: ss_flags bit: this partial segment contains directory-operation blocks.
SS_DIROP = 0x01
#: ss_flags bit: this partial segment continues a dirop from the previous one.
SS_CONT = 0x02

FINFO_FIXED = 12      # fi_nblocks + fi_ino + fi_lastlength
PER_BLOCK = 4         # one 32-bit logical block number per described block
PER_INOBLK = 4        # one 32-bit disk address per inode block


_blocks_of = attrgetter("blocks")


@dataclass
class FileInfo:
    """FINFO: which blocks of one file live in this partial segment."""

    ino: int
    lastlength: int              # bytes valid in the final described block
    blocks: List[int] = field(default_factory=list)   # logical block numbers


@dataclass
class SegmentSummary:
    """One partial segment's summary block."""

    next_daddr: int = UNASSIGNED     # ss_next: next segment in the threaded log
    create: float = 0.0              # seconds of virtual time
    flags: int = 0
    finfos: List[FileInfo] = field(default_factory=list)
    inode_daddrs: List[int] = field(default_factory=list)
    datasum: int = 0

    # -- sizing -----------------------------------------------------------

    def bytes_needed(self) -> int:
        """Summary bytes this catalogue occupies."""
        return (HEADER_SIZE + FINFO_FIXED * len(self.finfos)
                + PER_BLOCK * self.ndata_blocks()
                + PER_INOBLK * len(self.inode_daddrs))

    def fits(self, summary_size: int, extra_file: bool = False,
             extra_blocks: int = 0, extra_inoblk: bool = False) -> bool:
        """Would the summary still fit after adding the given items?"""
        need = self.bytes_needed() + extra_blocks * PER_BLOCK
        if extra_file:
            need += FINFO_FIXED
        if extra_inoblk:
            need += PER_INOBLK
        return need <= summary_size

    def blocks_that_fit(self, summary_size: int, ino: int) -> int:
        """How many more blocks of file ``ino`` fit: the one place that
        decides "new FINFO or continuation" for a room check."""
        new_file = not self.finfos or self.finfos[-1].ino != ino
        room = summary_size - self.bytes_needed() - new_file * FINFO_FIXED
        return max(0, room // PER_BLOCK)

    def ndata_blocks(self) -> int:
        return sum(map(len, map(_blocks_of, self.finfos)))

    # -- the catalogue: one writer, one reader ------------------------------

    def add_blocks(self, ino: int, lbns: Iterable[int],
                   lastlength: int) -> None:
        """Describe the next blocks of the partial as ``lbns`` of ``ino``.

        Continues the last FINFO when it is the same file's, else opens
        one; ``lastlength`` is that of the batch's final block.  Nothing
        else appends to or constructs a FINFO.
        """
        if self.finfos and self.finfos[-1].ino == ino:
            fi = self.finfos[-1]
            fi.blocks.extend(lbns)
            fi.lastlength = lastlength
        else:
            self.finfos.append(FileInfo(ino, lastlength, list(lbns)))

    def entries(self, base: int) -> Iterator[Tuple[FileInfo, int, int]]:
        """``(finfo, lbn, daddr)`` per described block, in layout order,
        for a partial whose summary block sits at address ``base``.
        Inode blocks may sit between data blocks (a staging segment
        migrating inodes appends each after its file), so their
        addresses are stepped over."""
        inode_daddrs = set(self.inode_daddrs)
        daddr = base + 1
        for fi in self.finfos:
            for lbn in fi.blocks:
                while daddr in inode_daddrs:
                    daddr += 1
                yield fi, lbn, daddr
                daddr += 1

    # -- content checksums ---------------------------------------------------

    def compute_datasum(self, blocks: List[bytes]) -> None:
        """Checksum the described blocks (first-word probe, like LFS)."""
        self.datasum = cksum_blocks(blocks)

    def verify_datasum(self, blocks: List[bytes]) -> bool:
        return self.datasum == cksum_blocks(blocks)

    # -- serialisation ---------------------------------------------------------

    def pack(self, summary_size: int) -> bytes:
        """Serialise into exactly ``summary_size`` bytes."""
        if self.bytes_needed() > summary_size:
            raise InvalidArgument(
                f"summary needs {self.bytes_needed()}B > {summary_size}B")
        body = bytearray(summary_size)
        create_cs = int(self.create * 100) & 0xFFFFFFFF
        _HEADER.pack_into(body, 0, 0, self.datasum,
                          self.next_daddr, create_cs,
                          len(self.finfos), len(self.inode_daddrs),
                          self.flags, SUMMARY_MAGIC & 0xFFFF)
        offset = HEADER_SIZE
        for fi in self.finfos:
            struct.pack_into("<III", body, offset, len(fi.blocks),
                             fi.ino, fi.lastlength)
            offset += FINFO_FIXED
            # Signed on the host side: negative lbns are indirect blocks,
            # stored as their 32-bit two's complement.
            struct.pack_into(f"<{len(fi.blocks)}i", body, offset, *fi.blocks)
            offset += PER_BLOCK * len(fi.blocks)
        # Inode block addresses grow backward from the end of the summary.
        tail = summary_size
        for daddr in self.inode_daddrs:
            tail -= PER_INOBLK
            struct.pack_into("<I", body, tail, daddr)
        # ss_sumsum covers everything except itself.
        sumsum = cksum32(memoryview(body)[4:])
        struct.pack_into("<I", body, 0, sumsum)
        return bytes(body)

    @classmethod
    def unpack(cls, data: bytes, summary_size: int,
               verify: bool = True) -> "SegmentSummary":
        """Parse a summary; raises ChecksumError on a torn/blank summary."""
        if len(data) < summary_size:
            raise InvalidArgument("short summary buffer")
        data = data[:summary_size]
        (sumsum, datasum, next_daddr, create_cs,
         nfinfo, ninoblk, flags, magic) = _HEADER.unpack_from(data, 0)
        if magic != (SUMMARY_MAGIC & 0xFFFF):
            raise ChecksumError("summary magic mismatch (not a summary)")
        if verify and sumsum != cksum32(data[4:]):
            raise ChecksumError("summary checksum mismatch (torn write)")
        summary = cls(next_daddr=next_daddr, create=create_cs / 100.0,
                      flags=flags, datasum=datasum)
        offset = HEADER_SIZE
        for _ in range(nfinfo):
            nblocks, ino, lastlength = struct.unpack_from("<III", data, offset)
            offset += FINFO_FIXED
            blocks = list(struct.unpack_from(f"<{nblocks}i", data, offset))
            offset += PER_BLOCK * nblocks
            summary.finfos.append(FileInfo(ino, lastlength, blocks))
        tail = summary_size
        for _ in range(ninoblk):
            tail -= PER_INOBLK
            (daddr,) = struct.unpack_from("<I", data, tail)
            summary.inode_daddrs.append(daddr)
        return summary

    @classmethod
    def try_unpack(cls, data: bytes,
                   summary_size: int) -> Optional["SegmentSummary"]:
        """Parse if valid, else None (roll-forward's stop condition)."""
        try:
            return cls.unpack(data, summary_size)
        except (ChecksumError, InvalidArgument, struct.error):
            return None
