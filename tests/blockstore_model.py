"""The per-block reference model of a device data store.

``BlockStore`` keeps one dict entry per 4 KB block.  Devices use
:class:`~repro.blockdev.extent.ExtentStore`; this class is the oracle
the store tests (``test_extentstore.py``, ``test_blockdev.py``) compare
it against, operation by operation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.blockdev.datapath import (ExtentRef, Part, as_ref, count_copy,
                                     materialize_refs)
from repro.blockdev.extent import DataStore
from repro.errors import InvalidArgument


class BlockStore(DataStore):
    """Sparse per-block data store: block number -> block bytes.

    Simple enough to be obviously right: a read lends one ref per block,
    and a write joins its parts and stores a per-block slice (those host
    copies are accounted through
    :func:`~repro.blockdev.datapath.count_copy`, as the shipped store's
    are).  The bytes verbs are the shared adapters, as on every store.
    """

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        super().__init__(capacity_blocks, block_size)
        self._blocks: Dict[int, bytes] = {}
        self._zero = bytes(block_size)

    def read_refs(self, blkno: int, nblocks: int) -> List[ExtentRef]:
        """One ref per block (unwritten blocks borrow the zero block)."""
        self.check_range(blkno, nblocks)
        bs = self.block_size
        return [ExtentRef(self._blocks.get(blkno + i, self._zero), 0, bs)
                for i in range(nblocks)]

    def writev(self, blkno: int, parts: Sequence[Part]) -> None:
        """Join the parts (counted) and store one slice per block."""
        data = materialize_refs([as_ref(p) for p in parts if len(p)])
        nbytes = len(data)
        self._check_aligned(nbytes)
        nblocks = nbytes // self.block_size
        self.check_range(blkno, nblocks)
        bs = self.block_size
        if nblocks == 1:
            self._blocks[blkno] = data
            return
        count_copy(nbytes)
        for i in range(nblocks):
            self._blocks[blkno + i] = data[i * bs:(i + 1) * bs]

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

    # -- media imaging ------------------------------------------------------

    def snapshot(self) -> object:
        # Block payloads are immutable bytes, so a dict copy is a deep
        # image: later writes rebind entries, never mutate them.
        return dict(self._blocks)

    def restore(self, image: object) -> None:
        if not isinstance(image, dict):
            raise InvalidArgument("not a BlockStore image")
        self._blocks = dict(image)
