"""On-media inodes: the FFS-style inode 4.4BSD LFS shares (paper §3, §6.2).

An inode holds 12 direct 32-bit block pointers plus single- and
double-indirect pointers; pointers address 4 KB blocks, so a file tops out
at ~4.2 GB here (the paper's 16 TB bound comes from the 32-bit address
space itself; its test files are <=200 MB).  Inodes are 128 bytes, 32 per
inode block; the inode map locates the inode *block* and the inode is found
within it by number, exactly as in 4.4BSD.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.errors import CorruptFilesystem, InvalidArgument
from repro.lfs.constants import (BLOCK_SIZE, INODE_SIZE, INODES_PER_BLOCK,
                                 NDADDR, NIADDR, UNASSIGNED)

# File type bits (subset of BSD st_mode).
S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFMT = 0o170000

_FMT = struct.Struct("<IHHIIQdddIIII" + "I" * NDADDR + "I" * NIADDR)
assert _FMT.size <= INODE_SIZE, _FMT.size


@dataclass
class Inode:
    """An in-memory inode mirroring the 128-byte on-media record."""

    inum: int
    mode: int = S_IFREG | 0o644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    gen: int = 0
    flags: int = 0
    blocks: int = 0          # blocks held (data + indirect), for accounting
    db: List[int] = field(default_factory=lambda: [UNASSIGNED] * NDADDR)
    ib: List[int] = field(default_factory=lambda: [UNASSIGNED] * NIADDR)

    # -- type predicates -----------------------------------------------------

    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    def lastlength(self, lbn: int) -> int:
        """Valid bytes of block ``lbn`` (a FINFO's ``fi_lastlength`` when
        it ends there): short only for the file's last block."""
        rem = self.size - lbn * BLOCK_SIZE
        return rem if 0 < rem < BLOCK_SIZE else BLOCK_SIZE

    # -- serialisation ---------------------------------------------------------

    def pack(self) -> bytes:
        raw = _FMT.pack(self.inum, self.mode, self.nlink, self.uid, self.gid,
                        self.size, self.atime, self.mtime, self.ctime,
                        self.gen, self.flags, self.blocks, 0,
                        *self.db, *self.ib)
        return raw.ljust(INODE_SIZE, b"\0")

    @classmethod
    def unpack(cls, data: bytes) -> "Inode":
        if len(data) < INODE_SIZE:
            raise InvalidArgument("short inode buffer")
        fields = _FMT.unpack(data[:_FMT.size])
        (inum, mode, nlink, uid, gid, size, atime, mtime, ctime,
         gen, flags, blocks, _pad) = fields[:13]
        db = list(fields[13:13 + NDADDR])
        ib = list(fields[13 + NDADDR:13 + NDADDR + NIADDR])
        return cls(inum=inum, mode=mode, nlink=nlink, uid=uid, gid=gid,
                   size=size, atime=atime, mtime=mtime, ctime=ctime,
                   gen=gen, flags=flags, blocks=blocks, db=db, ib=ib)


def pack_inode_block(inodes: List[Inode]) -> bytes:
    """Serialise up to 32 inodes into one 4 KB inode block."""
    if len(inodes) > INODES_PER_BLOCK:
        raise InvalidArgument(
            f"{len(inodes)} inodes > {INODES_PER_BLOCK} per block")
    raw = b"".join(ino.pack() for ino in inodes)
    return raw.ljust(BLOCK_SIZE, b"\0")


def unpack_inode_block(data: bytes) -> List[Inode]:
    """Parse every populated inode slot out of an inode block."""
    inodes = []
    for slot in range(INODES_PER_BLOCK):
        chunk = data[slot * INODE_SIZE:(slot + 1) * INODE_SIZE]
        if len(chunk) < INODE_SIZE or chunk[:4] == b"\0\0\0\0":
            continue  # empty slot (inum 0 is never allocated)
        inodes.append(Inode.unpack(chunk))
    return inodes


def find_inode_in_block(data: bytes, inum: int) -> Inode:
    """Locate inode ``inum`` within an inode block (4.4BSD-style scan)."""
    for ino in unpack_inode_block(data):
        if ino.inum == inum:
            return ino
    raise CorruptFilesystem(f"inode {inum} not found in its inode block")
