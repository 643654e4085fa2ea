"""The ifile: cleaner info, segment-usage table, and inode map.

"In 4.4BSD LFS, both the inode map and the segment summary table are
contained in a regular file, called the ifile" (paper §3).  HighLight's
ifile is "a superset of that from the 4.4BSD LFS ifile": each segment entry
gains a cached-segment flag, a bytes-available count (for media of
uncertain capacity), and a cache directory tag (paper §6.4).

The in-memory IFile is authoritative during operation; checkpoints
serialise it into the ifile's file blocks through the normal write path,
and mount/recovery parses it back.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import CorruptFilesystem, InvalidArgument
from repro.lfs.constants import (BLOCK_SIZE, FIRST_FREE_INUM, UNASSIGNED)

# Segment state flags (paper Fig. 1/Fig. 3 state keys).
SEG_CLEAN = 0x01
SEG_DIRTY = 0x02
SEG_ACTIVE = 0x04
#: HighLight: this disk segment is a cache line for a tertiary segment.
SEG_CACHED = 0x08
#: HighLight: cached line not yet copied out to tertiary (staging).
SEG_STAGING = 0x10
#: Segment's backing store was removed from service (disk removal).
SEG_GONE = 0x20

_SEGUSE = struct.Struct("<IHHdIId")  # live, flags, pad, lastmod, avail, tag, fetch
_IMAP = struct.Struct("<IIII")       # daddr, version, nextfree, pad
_HEADER = struct.Struct("<IIIII")    # nsegs, nimap, free_head, clean, dirty

SEGUSE_SIZE = _SEGUSE.size
IMAP_ENTRY_SIZE = _IMAP.size


@dataclass
class SegUse:
    """Per-segment usage summary (one entry of the segment usage table)."""

    live_bytes: int = 0
    flags: int = SEG_CLEAN
    lastmod: float = 0.0
    #: Usable bytes in this segment's container (uncertain-capacity media).
    bytes_avail: int = 0
    #: Tertiary segment number cached here (UNASSIGNED when not a cache line).
    cache_tag: int = UNASSIGNED
    #: Virtual time this cache line was fetched (policy input, paper §5.4).
    fetch_time: float = 0.0

    def is_clean(self) -> bool:
        return bool(self.flags & SEG_CLEAN)

    def is_dirty(self) -> bool:
        return bool(self.flags & SEG_DIRTY)

    def is_active(self) -> bool:
        return bool(self.flags & SEG_ACTIVE)

    def is_cached(self) -> bool:
        return bool(self.flags & SEG_CACHED)

    def pack(self) -> bytes:
        return _SEGUSE.pack(self.live_bytes, self.flags, 0, self.lastmod,
                            self.bytes_avail, self.cache_tag, self.fetch_time)

    @classmethod
    def unpack(cls, data: bytes) -> "SegUse":
        live, flags, _pad, lastmod, avail, tag, fetch = _SEGUSE.unpack(
            data[:_SEGUSE.size])
        return cls(live_bytes=live, flags=flags, lastmod=lastmod,
                   bytes_avail=avail, cache_tag=tag, fetch_time=fetch)


@dataclass
class IMapEntry:
    """Inode map entry: where an inode's inode block currently lives."""

    daddr: int = UNASSIGNED
    version: int = 0
    nextfree: int = 0

    def pack(self) -> bytes:
        return _IMAP.pack(self.daddr, self.version, self.nextfree, 0)

    @classmethod
    def unpack(cls, data: bytes) -> "IMapEntry":
        daddr, version, nextfree, _ = _IMAP.unpack(data[:_IMAP.size])
        return cls(daddr=daddr, version=version, nextfree=nextfree)


class IFile:
    """In-memory ifile: segment usage table + inode map + free-inode list."""

    def __init__(self, nsegs: int) -> None:
        if nsegs <= 0:
            raise InvalidArgument("filesystem needs at least one segment")
        self.segs: List[SegUse] = [SegUse() for _ in range(nsegs)]
        self.imap: Dict[int, IMapEntry] = {}
        self._free_head = 0           # 0 = no freed inums; allocate fresh
        self._next_inum = FIRST_FREE_INUM

    # -- segment usage ---------------------------------------------------------

    @property
    def nsegs(self) -> int:
        return len(self.segs)

    def seguse(self, segno: int) -> SegUse:
        if not 0 <= segno < len(self.segs):
            raise InvalidArgument(f"segment {segno} out of range")
        return self.segs[segno]

    def clean_count(self) -> int:
        return sum(1 for s in self.segs
                   if s.is_clean() and not s.flags & SEG_GONE)

    def dirty_count(self) -> int:
        return sum(1 for s in self.segs if s.is_dirty())

    def clean_segments(self) -> Iterator[int]:
        """Segment numbers currently clean and usable."""
        for segno, seg in enumerate(self.segs):
            if seg.is_clean() and not seg.flags & (SEG_GONE | SEG_CACHED):
                yield segno

    def dirty_segments(self) -> Iterator[int]:
        for segno, seg in enumerate(self.segs):
            if seg.is_dirty() and not seg.is_active():
                yield segno

    def grow(self, extra_segs: int) -> None:
        """Add segments (on-line disk addition, paper §6.4)."""
        if extra_segs < 0:
            raise InvalidArgument("cannot shrink with grow()")
        self.segs.extend(SegUse() for _ in range(extra_segs))

    # -- inode map -------------------------------------------------------------

    def imap_entry(self, inum: int) -> IMapEntry:
        entry = self.imap.get(inum)
        if entry is None:
            raise CorruptFilesystem(f"inode {inum} has no imap entry")
        return entry

    def imap_lookup(self, inum: int) -> Optional[IMapEntry]:
        return self.imap.get(inum)

    def alloc_inum(self) -> int:
        """Allocate an inode number (free list first, then fresh)."""
        if self._free_head:
            inum = self._free_head
            entry = self.imap[inum]
            self._free_head = entry.nextfree
            entry.nextfree = 0
            entry.daddr = UNASSIGNED
            entry.version += 1
            return inum
        inum = self._next_inum
        self._next_inum += 1
        self.imap[inum] = IMapEntry(version=1)
        return inum

    def free_inum(self, inum: int) -> None:
        """Return an inode number to the free list."""
        entry = self.imap_entry(inum)
        entry.daddr = UNASSIGNED
        entry.nextfree = self._free_head
        self._free_head = inum

    # -- serialisation ----------------------------------------------------------

    def serialize(self) -> bytes:
        """Flatten to the ifile's file content (block-padded regions)."""
        imap_inums = sorted(self.imap)
        header = _HEADER.pack(len(self.segs), len(imap_inums),
                              self._free_head, self.clean_count(),
                              self.dirty_count())
        header += struct.pack("<I", self._next_inum)
        blocks = [header.ljust(BLOCK_SIZE, b"\0")]
        seg_raw = b"".join(s.pack() for s in self.segs)
        blocks.append(seg_raw)
        imap_raw = b"".join(struct.pack("<I", inum) + self.imap[inum].pack()
                            for inum in imap_inums)
        blocks.append(imap_raw)
        out = bytearray()
        for region in blocks:
            out += region
            pad = (-len(out)) % BLOCK_SIZE
            out += bytes(pad)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "IFile":
        if len(data) < BLOCK_SIZE:
            raise CorruptFilesystem("ifile content too short")
        nsegs, nimap, free_head, _clean, _dirty = _HEADER.unpack_from(data, 0)
        (next_inum,) = struct.unpack_from("<I", data, _HEADER.size)
        ifile = cls(nsegs)
        ifile._free_head = free_head
        ifile._next_inum = next_inum
        offset = BLOCK_SIZE
        for segno in range(nsegs):
            ifile.segs[segno] = SegUse.unpack(
                data[offset:offset + SEGUSE_SIZE])
            offset += SEGUSE_SIZE
        offset += (-offset) % BLOCK_SIZE
        entry_size = 4 + IMAP_ENTRY_SIZE
        for _ in range(nimap):
            (inum,) = struct.unpack_from("<I", data, offset)
            ifile.imap[inum] = IMapEntry.unpack(
                data[offset + 4:offset + entry_size])
            offset += entry_size
        return ifile
