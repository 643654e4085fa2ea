"""32-bit checksums for partial-segment summaries.

4.4BSD LFS checksums the summary block and (the first word of) each data
block so that recovery can tell whether a partial segment made it to the
medium in full (paper Table 1: ``ss_sumsum`` and ``ss_datasum``).  We use
CRC32, which is stronger than the original's additive checksum but serves
the identical structural role: detect torn partial segments during
roll-forward.
"""

from __future__ import annotations

import zlib
from operator import itemgetter
from typing import Iterable


def cksum32(data: bytes) -> int:
    """Checksum a byte string to a 32-bit unsigned value."""
    return zlib.crc32(data) & 0xFFFFFFFF


def cksum_blocks(blocks: Iterable[bytes], probe: int = 4) -> int:
    """Checksum a sequence of blocks the way LFS checksums data blocks.

    LFS does not checksum every byte of every data block; it folds in the
    first word of each block, which is enough to notice a block that never
    reached the medium.  ``probe`` is the number of leading bytes sampled
    from each block.
    """
    # The CRC of the probes' concatenation is the CRC chained through
    # each probe in turn; one C-level gather replaces the per-block loop.
    return zlib.crc32(b"".join(map(itemgetter(slice(0, probe)), blocks))) \
        & 0xFFFFFFFF
