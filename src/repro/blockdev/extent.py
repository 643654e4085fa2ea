"""The device data store: written ranges as shared-buffer extent runs.

The store keeps whole written runs as immutable ``(start, nblocks, buf,
off)`` rows over shared buffers, so the common segment-sized transfers
are O(runs) bookkeeping rather than a Python loop (and a ``b"".join``)
over 4 KB blocks.  Like every data-path layer it implements two verbs
(the bytes names are the :class:`~repro.blockdev.datapath.BlockIO`
adapters):

* ``writev`` lands a list of parts as one batch — one carve, one row
  splice, never a per-part insert loop — under the one copy rule:
  immutable ``bytes`` and borrowed ranges (:class:`ExtentRef`) are
  *adopted* by reference (the handing-over side stops mutating a ref's
  range — this is how a staging buffer's payload reaches disk, tape,
  and back without a single host copy), any other buffer is snapshotted
  with one counted copy, and a list whose parts split a block is joined
  once (counted).  Contiguous refs over one buffer are **coalesced at
  adopt time**, so a segment that arrives as chunked refs settles into
  one row immediately;
* ``read_refs`` hands back borrowed ranges (a pure binary-search slice,
  no merging); the ``read`` adapter's join is free when one extent is
  exactly the requested ``bytes`` image.

Extent rows are **immutable tuples** and extent buffers are **never
mutated in place**: every write replaces the covered range, and
trims/splits build new rows that only adjust ``(start, off, nblocks)``.
That makes an adopted buffer a stable snapshot even when shared between
several stores (disk line, tape volume, and cache can all reference the
same staging buffer) — and it makes :meth:`snapshot` a plain O(runs)
list copy instead of a deep copy, which is what the crash matrix pays
at every crash point.

Sparse semantics are those of a freshly formatted medium (and of the
per-block reference model under ``tests/``): unwritten blocks read back as
zeros, ``is_written``/``written_in_range`` count real writes only, and a
read that crosses an unwritten hole never records the hole as written.

All host-memory copies this store does perform are accounted through
:func:`repro.blockdev.datapath.count_copy`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from repro.blockdev.datapath import (BlockIO, ExtentRef, Part, as_ref,
                                     count_copy, materialize_refs, sanitizer,
                                     zeros)
from repro.errors import AddressError, InvalidArgument

__all__ = ["DataStore", "ExtentStore"]

# Extent rows are immutable 4-tuples (start_blk, nblocks, buf, byte_off):
# blocks [start, start + nblocks) hold buf[off : off + nblocks * bs].
_START, _NBLK, _BUF, _OFF = range(4)


class DataStore(BlockIO):
    """Common shape of the sparse data stores behind every device.

    Devices are data-bearing — file contents written through the stack must
    round-trip byte-for-byte through migration and demand fetch — but a
    848 MB partition is stored sparsely; unwritten blocks read back as
    zeros, like a freshly formatted medium.  :class:`ExtentStore` is the
    one implementation devices use; the other subclass is the per-block
    dict model under ``tests/`` that the property tests compare it
    against.  Both implement ``read_refs(blkno, nblocks)`` and
    ``writev(blkno, parts)``.
    """

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        if capacity_blocks <= 0 or block_size <= 0:
            raise ValueError("capacity and block size must be positive")
        self.capacity_blocks = capacity_blocks
        self.block_size = block_size

    def check_range(self, blkno: int, nblocks: int) -> None:
        """Raise AddressError unless [blkno, blkno+nblocks) is on the store."""
        if nblocks <= 0:
            raise InvalidArgument(f"nblocks must be positive, got {nblocks}")
        if blkno < 0 or blkno + nblocks > self.capacity_blocks:
            raise AddressError(
                f"blocks [{blkno}, {blkno + nblocks}) outside device of "
                f"{self.capacity_blocks} blocks", blkno=blkno)

    def _check_aligned(self, nbytes: int) -> None:
        if nbytes % self.block_size != 0:
            raise InvalidArgument(
                f"write of {nbytes} bytes is not block-aligned "
                f"(block size {self.block_size})")

    # -- media imaging (crash simulation) ----------------------------------
    #
    # A "crash" in the simulator abandons every in-memory object; the only
    # state that survives is what reached the stores.  ``snapshot`` freezes
    # the written contents as an opaque image, ``restore`` loads such an
    # image into a (typically fresh) store of the same geometry — together
    # they model pulling the platters out of a dead machine and spinning
    # them up in a new one.

    def snapshot(self) -> object:
        """Freeze the written contents as an opaque, immutable image."""
        raise NotImplementedError

    def restore(self, image: object) -> None:
        """Replace this store's contents with a snapshotted image."""
        raise NotImplementedError


class ExtentStore(DataStore):
    """Sparse data store keeping written ranges as extent runs."""

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        super().__init__(capacity_blocks, block_size)
        self._starts: List[int] = []    # sorted extent start blocks
        self._exts: List[tuple] = []    # parallel extent rows

    # -- internal geometry --------------------------------------------------

    def run_count(self) -> int:
        """Number of extent rows currently held (fragmentation probe)."""
        return len(self._exts)

    def _span(self, blkno: int, end: int) -> tuple:
        """Index range [lo, hi) of extents overlapping [blkno, end).

        Both edges are binary searches: ``lo`` is the last extent
        starting at or before ``blkno`` (kept only if it reaches past
        it), ``hi`` the first extent starting at or past ``end``.
        """
        starts = self._starts
        lo = bisect_right(starts, blkno)
        if lo > 0:
            row = self._exts[lo - 1]
            if row[_START] + row[_NBLK] > blkno:
                lo -= 1
        hi = bisect_left(starts, end, lo)
        return lo, hi

    def _carve(self, blkno: int, end: int) -> int:
        """Remove coverage of [blkno, end); returns the insertion index
        where a replacement extent starting at ``blkno`` belongs.

        Remainders of partially-overlapped extents are kept as trimmed
        rows — no buffer bytes move.  Outstanding borrows of the range
        are released (the sanitizer poisons them).
        """
        san = sanitizer()
        if san is not None:
            san.on_release(self, blkno, end)
        lo, hi = self._span(blkno, end)
        if lo == hi:
            return lo
        bs = self.block_size
        repl = []
        for j in range(lo, hi):
            s, n, buf, off = self._exts[j]
            e = s + n
            if s < blkno:
                repl.append((s, blkno - s, buf, off))
            if e > end:
                repl.append((end, e - end, buf, off + (end - s) * bs))
        self._exts[lo:hi] = repl
        self._starts[lo:hi] = [r[_START] for r in repl]
        return lo + (1 if repl and repl[0][_START] < blkno else 0)

    def _splice(self, idx: int, rows: List[tuple]) -> None:
        """Insert a batch of contiguous, pre-merged rows at ``idx`` with
        one slice assignment, free-merging with the two edge neighbours
        that continue the same buffer contiguously.

        The caller has already carved [rows[0].start, rows[-1].end), so
        only the outer boundaries can merge.
        """
        bs = self.block_size
        exts = self._exts
        lo = hi = idx
        if idx > 0:
            p = exts[idx - 1]
            r = rows[0]
            if (p[_START] + p[_NBLK] == r[_START] and p[_BUF] is r[_BUF]
                    and p[_OFF] + p[_NBLK] * bs == r[_OFF]):
                rows[0] = (p[_START], p[_NBLK] + r[_NBLK], p[_BUF], p[_OFF])
                lo = idx - 1
        if idx < len(exts):
            nxt = exts[idx]
            r = rows[-1]
            if (r[_START] + r[_NBLK] == nxt[_START] and r[_BUF] is nxt[_BUF]
                    and r[_OFF] + r[_NBLK] * bs == nxt[_OFF]):
                rows[-1] = (r[_START], r[_NBLK] + nxt[_NBLK], r[_BUF],
                            r[_OFF])
                hi = idx + 1
        exts[lo:hi] = rows
        self._starts[lo:hi] = [r[_START] for r in rows]

    # -- occupancy ----------------------------------------------------------

    def is_written(self, blkno: int) -> bool:
        """True if ``blkno`` has ever been written."""
        lo = bisect_right(self._starts, blkno)
        if lo == 0:
            return False
        row = self._exts[lo - 1]
        return row[_START] + row[_NBLK] > blkno

    def written_in_range(self, blkno: int, nblocks: int) -> int:
        """How many blocks of [blkno, blkno+nblocks) have been written."""
        end = blkno + nblocks
        lo, hi = self._span(blkno, end)
        return sum(min(self._exts[j][_START] + self._exts[j][_NBLK], end)
                   - max(self._exts[j][_START], blkno)
                   for j in range(lo, hi))

    def discard(self, blkno: int, nblocks: int = 1) -> None:
        """Forget blocks (used by tests and by WORM 'blank check')."""
        if nblocks <= 0:
            return
        self._carve(blkno, blkno + nblocks)

    # -- the two verbs -------------------------------------------------------

    def read_refs(self, blkno: int, nblocks: int) -> List[ExtentRef]:
        """Borrowed ranges covering the request, zeros filling holes."""
        self.check_range(blkno, nblocks)
        bs = self.block_size
        end = blkno + nblocks
        lo, hi = self._span(blkno, end)
        refs: List[ExtentRef] = []
        cursor = blkno
        for j in range(lo, hi):
            s, n, buf, off = self._exts[j]
            if s > cursor:
                gap = (s - cursor) * bs
                refs.append(ExtentRef(zeros(gap), 0, gap))
                cursor = s
            take = min(s + n, end) - cursor
            refs.append(ExtentRef(buf, off + (cursor - s) * bs, take * bs))
            cursor += take
        if cursor < end:
            gap = (end - cursor) * bs
            refs.append(ExtentRef(zeros(gap), 0, gap))
        san = sanitizer()
        if san is not None:
            refs = san.on_borrow(self, blkno, refs)
        return refs

    def writev(self, blkno: int, parts: Sequence[Part]) -> None:
        """The one store write: ``parts`` land at consecutive blocks from
        ``blkno`` as one batch — one carve, one row splice.

        The one copy rule: ``bytes`` and :class:`ExtentRef` parts are
        kept by reference (a ref's giver must not mutate the range
        afterwards); any other buffer is snapshotted with one counted
        copy; a total that is not block-aligned raises; parts that split
        a block are joined once into one image (counted).  Contiguous
        refs over one buffer merge into a single row *here*, at adopt
        time, so the read side never pays a merge.
        """
        bs = self.block_size
        total = 0
        aligned = True
        for part in parts:
            n = len(part)
            total += n
            if n % bs:
                aligned = False
        self._check_aligned(total)
        nblocks = total // bs
        self.check_range(blkno, nblocks)
        if aligned:
            rows = self._rows(blkno, parts)
        else:
            # A block split across parts: join the list once, reading
            # the parts' bytes before the carve releases any borrow.
            rows = [(blkno, nblocks,
                     materialize_refs([as_ref(p) for p in parts]), 0)]
        idx = self._carve(blkno, blkno + nblocks)
        self._splice(idx, rows)
        san = sanitizer()
        if san is not None:
            san.on_adopt(self, parts)

    def _rows(self, blkno: int, parts: Sequence[Part]) -> List[tuple]:
        """Extent rows for whole-block parts landing at ``blkno``."""
        bs = self.block_size
        rows: List[tuple] = []
        cursor = blkno
        for part in parts:
            n = len(part)
            if not n:
                continue
            if isinstance(part, bytes):
                buf, off = part, 0
            elif isinstance(part, ExtentRef):
                buf, off = part.buf, part.start
            else:
                count_copy(n)
                buf, off = bytes(part), 0
            n //= bs
            if rows:
                prev = rows[-1]
                if (prev[_BUF] is buf
                        and prev[_OFF] + prev[_NBLK] * bs == off):
                    # The part continues the same buffer contiguously.
                    rows[-1] = (prev[_START], prev[_NBLK] + n, buf,
                                prev[_OFF])
                    cursor += n
                    continue
            rows.append((cursor, n, buf, off))
            cursor += n
        return rows

    # -- media imaging ------------------------------------------------------

    def snapshot(self) -> object:
        # Rows are immutable tuples and extent buffers are never mutated
        # in place, so a shallow list copy *is* a deep image: later
        # writes splice in new rows, never touch old ones.  O(runs)
        # pointer copies — the crash matrix snapshots per crash point.
        return list(self._exts)

    def restore(self, image: object) -> None:
        if not isinstance(image, list):
            raise InvalidArgument("not an ExtentStore image")
        san = sanitizer()
        if san is not None:
            # Wholesale content replacement: every outstanding borrow of
            # this store is now stale.
            san.on_release(self, 0, self.capacity_blocks,
                           reason="replaced by a media-image restore")
        self._exts = [(s, n, buf, off) for s, n, buf, off in image]
        self._starts = [row[_START] for row in self._exts]
