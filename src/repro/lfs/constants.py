"""On-media layout constants shared across the LFS implementation."""

from __future__ import annotations

from repro.util.units import KB, MB

#: File system block size.  HighLight block addresses are for 4-kilobyte
#: blocks (paper §6.3); with 32-bit pointers this caps a filesystem (and a
#: file) at 16 TB.
BLOCK_SIZE = 4 * KB

#: Log segment size.  "LFS divides the disk into 512KB or 1MB segments";
#: HighLight fetches whole 1 MB segments as its cache line (§5).
SEGMENT_SIZE = 1 * MB

BLOCKS_PER_SEG = SEGMENT_SIZE // BLOCK_SIZE

#: Out-of-band block address meaning "no block assigned" (the paper's "-1").
UNASSIGNED = 0xFFFFFFFF

#: Device blocks reserved at the head of the disk for boot blocks and the
#: superblock area; this shift is why the last addressable segment is too
#: short to use (paper §6.3).
RESERVED_BLOCKS = 16

#: Well-known inode numbers (match 4.4BSD LFS conventions).
IFILE_INUM = 1
ROOT_INUM = 2
FIRST_FREE_INUM = 3

#: Direct and indirect pointer counts in an inode.
NDADDR = 12
NIADDR = 2          # single + double indirect (ample for paper workloads)
PTRS_PER_BLOCK = BLOCK_SIZE // 4

#: Logical block numbers for indirect blocks (negative, out of the data
#: range, mirroring 4.4BSD's negative-lbn convention).
SINGLE_ROOT_LBN = -1
DOUBLE_ROOT_LBN = -2
FIRST_DOUBLE_CHILD_LBN = -3  # child j has lbn -(3 + j)

#: Largest data logical block: 12 direct + 1024 single + 1024^2 double.
MAX_LBN = NDADDR + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK - 1

#: Inode on-media size; 32 inodes fit one 4 KB inode block.
INODE_SIZE = 128
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE

#: Partial-segment summary sizes: base 4.4BSD LFS uses a 512-byte summary
#: block; HighLight must use a 4 KB one because its pointers address 4 KB
#: blocks (paper §6.3).
SUMMARY_SIZE_LFS = 512
SUMMARY_SIZE_HIGHLIGHT = BLOCK_SIZE

#: Magic numbers.
SUPERBLOCK_MAGIC = 0x4C465331  # "LFS1"
SUMMARY_MAGIC = 0x53554D4D     # "SUMM"


def double_child_lbn(j: int) -> int:
    """Logical block number of the j-th child of the double-indirect root."""
    return -(3 + j)
