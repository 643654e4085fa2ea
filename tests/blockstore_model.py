"""The per-block reference model of a device data store.

``BlockStore`` keeps one dict entry per 4 KB block.  Devices use
:class:`~repro.blockdev.extent.ExtentStore`; this class is the oracle
the store tests (``test_extentstore.py``, ``test_blockdev.py``) compare
it against, operation by operation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.blockdev.datapath import (Buffer, ExtentRef, count_copy,
                                     materialize_refs, ref_of)
from repro.blockdev.extent import DataStore
from repro.errors import InvalidArgument


class BlockStore(DataStore):
    """Sparse per-block data store: block number -> block bytes.

    Simple enough to be obviously right: every multi-block transfer is a
    join on read and a per-block slice on write (those host copies are
    accounted through :func:`~repro.blockdev.datapath.count_copy`, as
    the shipped store's are).
    """

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        super().__init__(capacity_blocks, block_size)
        self._blocks: Dict[int, bytes] = {}
        self._zero = bytes(block_size)

    def read(self, blkno: int, nblocks: int) -> bytes:
        """Return ``nblocks`` blocks starting at ``blkno``."""
        self.check_range(blkno, nblocks)
        if nblocks == 1:
            return self._blocks.get(blkno, self._zero)
        count_copy(nblocks * self.block_size)
        parts = [self._blocks.get(blkno + i, self._zero)
                 for i in range(nblocks)]
        return b"".join(parts)

    def write(self, blkno: int, data: Buffer) -> None:
        """Write ``data`` (a whole number of blocks) starting at ``blkno``.

        Accepts ``bytes | bytearray | memoryview``; a single-block
        immutable ``bytes`` write is stored by reference with no copy.
        """
        nbytes = len(data)
        self._check_aligned(nbytes)
        nblocks = nbytes // self.block_size
        self.check_range(blkno, nblocks)
        if nblocks == 1 and isinstance(data, bytes):
            self._blocks[blkno] = data
            return
        bs = self.block_size
        count_copy(nbytes)
        if isinstance(data, bytes):
            for i in range(nblocks):
                self._blocks[blkno + i] = data[i * bs:(i + 1) * bs]
        else:
            view = memoryview(data)
            for i in range(nblocks):
                self._blocks[blkno + i] = bytes(view[i * bs:(i + 1) * bs])

    def is_written(self, blkno: int) -> bool:
        """True if ``blkno`` has ever been written."""
        return blkno in self._blocks

    def written_in_range(self, blkno: int, nblocks: int) -> int:
        """How many blocks of [blkno, blkno+nblocks) have been written."""
        return sum(1 for i in range(nblocks) if blkno + i in self._blocks)

    def discard(self, blkno: int, nblocks: int = 1) -> None:
        """Forget blocks (used by tests and by WORM 'blank check')."""
        for i in range(nblocks):
            self._blocks.pop(blkno + i, None)

    def written_blocks(self) -> int:
        """Number of distinct blocks ever written (space accounting)."""
        return len(self._blocks)

    # -- vectored API (emulated over scalar read/write) --------------------

    def read_refs(self, blkno: int, nblocks: int) -> List[ExtentRef]:
        """One ref over a joined copy (the model has no shared runs)."""
        return [ref_of(self.read(blkno, nblocks))]

    def write_refs(self, blkno: int, refs: Sequence[ExtentRef]) -> None:
        self.write(blkno, materialize_refs(refs))

    def readv(self, blkno: int, nblocks: int) -> List[memoryview]:
        return [memoryview(self.read(blkno, nblocks))]

    def writev(self, blkno: int, parts: Sequence[Buffer]) -> None:
        cursor = blkno
        for part in parts:
            if not len(part):
                continue
            self.write(cursor, part)
            cursor += len(part) // self.block_size

    # -- media imaging ------------------------------------------------------

    def snapshot(self) -> object:
        # Block payloads are immutable bytes, so a dict copy is a deep
        # image: later writes rebind entries, never mutate them.
        return dict(self._blocks)

    def restore(self, image: object) -> None:
        if not isinstance(image, dict):
            raise InvalidArgument("not a BlockStore image")
        self._blocks = dict(image)
