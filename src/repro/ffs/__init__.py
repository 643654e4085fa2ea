"""A Fast File System baseline with read/write clustering.

The paper benchmarks HighLight against "a version of FFS with read- and
write-clustering, which coalesces adjacent block I/O operations for
better performance" (§7).  It runs LFS's own UFS layer
(:mod:`repro.lfs.ufs`: reads, read-ahead, writes, namespace), so the
only differences from LFS are those of layout:

* blocks are assigned a location on allocation and **updated in place**
  — every subsequent read or write goes to that same location;
* the allocator places file blocks in contiguous 16-block (64 KB)
  cluster-sized runs inside cylinder groups;
* dirty buffers are flushed write-behind in disk-address order (the
  elevator), coalescing physically adjacent blocks into single transfers.

The baseline is performance-faithful, not crash-faithful: it exists so
Tables 2 and 3 have their comparison column, and it persists enough
metadata (inodes, directories, data) to round-trip file content.
"""

from repro.ffs.allocator import CylinderGroupAllocator
from repro.ffs.filesystem import FFS

__all__ = ["CylinderGroupAllocator", "FFS"]
