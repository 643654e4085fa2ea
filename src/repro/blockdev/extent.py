"""The device data store: written ranges as shared-buffer extent runs.

The store keeps whole written runs as immutable ``(start, nblocks, buf,
off)`` rows over shared buffers, so the common segment-sized transfers
are O(runs) bookkeeping rather than a Python loop (and a ``b"".join``)
over 4 KB blocks:

* a ``write`` of an immutable ``bytes`` image *adopts* it by reference —
  sharing an immutable buffer is semantically identical to copying it;
* ``write_refs`` adopts borrowed ranges (:class:`ExtentRef`) of any
  buffer under the data-path contract that the handing-over side stops
  mutating the range — this is how a staging buffer's payload reaches
  disk, tape, and back without a single host copy.  Contiguous refs
  over one buffer are **coalesced at adopt time**, so a segment that
  arrives as chunked refs settles into one row immediately;
* ``writev`` splices a whole part list in as one batch: one carve, one
  row splice — never a per-part insert loop;
* ``read_refs`` hands back borrowed ranges instead of joined bytes
  (a pure binary-search slice, no merging), and ``read`` returns the
  stored ``bytes`` object itself when one extent exactly covers the
  request.

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
zeros, ``is_written``/``written_blocks`` count real writes only, and a
read that crosses an unwritten hole never records the hole as written.
Fragmented runs are re-coalesced opportunistically: a multi-extent read
that is *fully* covered stores the joined image back as a single extent,
so repeated segment reads settle into the zero-copy fast path.

All host-memory copies this store does perform are accounted through
:func:`repro.blockdev.datapath.count_copy`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from repro.blockdev.datapath import (Buffer, ExtentRef, count_copy,
                                     materialize_refs, sanitizer, zeros)
from repro.errors import AddressError, InvalidArgument

__all__ = ["DataStore", "ExtentStore"]

# Extent rows are immutable 4-tuples (start_blk, nblocks, buf, byte_off):
# blocks [start, start + nblocks) hold buf[off : off + nblocks * bs].
_START, _NBLK, _BUF, _OFF = range(4)


class DataStore:
    """Common shape of the sparse data stores behind every device.

    Devices are data-bearing — file contents written through the stack must
    round-trip byte-for-byte through migration and demand fetch — but a
    848 MB partition is stored sparsely; unwritten blocks read back as
    zeros, like a freshly formatted medium.  :class:`ExtentStore` is the
    one implementation devices use; the other subclass is the per-block
    dict model under ``tests/`` that the property tests compare it
    against.
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
        self._written = 0               # total blocks covered by extents

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

    def _carve(self, blkno: int, end: int, release: bool = True) -> int:
        """Remove coverage of [blkno, end); returns the insertion index
        where a replacement extent starting at ``blkno`` belongs.

        Remainders of partially-overlapped extents are kept as trimmed
        rows — no buffer bytes move.

        ``release=False`` marks a carve that replaces the range with the
        *identical bytes* (coalesce-on-read): outstanding borrows stay
        valid, so the sanitizer must not poison them.
        """
        if release:
            san = sanitizer()
            if san is not None:
                san.on_release(self, blkno, end)
        lo, hi = self._span(blkno, end)
        if lo == hi:
            return lo
        bs = self.block_size
        repl = []
        removed = 0
        for j in range(lo, hi):
            s, n, buf, off = self._exts[j]
            e = s + n
            removed += min(e, end) - max(s, blkno)
            if s < blkno:
                repl.append((s, blkno - s, buf, off))
            if e > end:
                repl.append((end, e - end, buf, off + (end - s) * bs))
        self._exts[lo:hi] = repl
        self._starts[lo:hi] = [r[_START] for r in repl]
        self._written -= removed
        return lo + (1 if repl and repl[0][_START] < blkno else 0)

    def _splice(self, idx: int, rows: List[tuple]) -> None:
        """Insert a batch of contiguous, pre-merged rows at ``idx`` with
        one slice assignment, free-merging with the two edge neighbours
        that continue the same buffer contiguously.

        The caller has already carved [rows[0].start, rows[-1].end), so
        only the outer boundaries can merge.  ``_written`` is updated by
        the caller (edge merges never change coverage).
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

    def _place(self, blkno: int, nblocks: int, buf: Buffer,
               off: int, release: bool = True) -> None:
        idx = self._carve(blkno, blkno + nblocks, release=release)
        self._splice(idx, [(blkno, nblocks, buf, off)])
        self._written += nblocks

    # -- scalar API ---------------------------------------------------------

    def read(self, blkno: int, nblocks: int) -> bytes:
        """Return ``nblocks`` blocks starting at ``blkno``."""
        self.check_range(blkno, nblocks)
        bs = self.block_size
        end = blkno + nblocks
        nbytes = nblocks * bs
        lo, hi = self._span(blkno, end)
        if hi - lo == 1:
            s, n, buf, off = self._exts[lo]
            if s <= blkno and s + n >= end:
                skip = off + (blkno - s) * bs
                if (skip == 0 and isinstance(buf, bytes)
                        and len(buf) == nbytes):
                    return buf  # exact image: zero-copy
                count_copy(nbytes)
                return bytes(memoryview(buf)[skip:skip + nbytes])
        # General path: join rows and zero-fill holes in one pass,
        # tracking coverage so the hole check needs no second scan.
        parts: List[Buffer] = []
        cursor = blkno
        covered = 0
        for j in range(lo, hi):
            s, n, buf, off = self._exts[j]
            if s > cursor:
                gap = (s - cursor) * bs
                parts.append(memoryview(zeros(gap))[:gap])
                cursor = s
            take = min(s + n, end) - cursor
            skip = off + (cursor - s) * bs
            if (skip == 0 and take == n and isinstance(buf, bytes)
                    and len(buf) == take * bs):
                parts.append(buf)
            else:
                parts.append(memoryview(buf)[skip:skip + take * bs])
            covered += take
            cursor += take
        if cursor < end:
            gap = (end - cursor) * bs
            parts.append(memoryview(zeros(gap))[:gap])
        count_copy(nbytes)
        data = b"".join(parts)
        # Coalesce-on-read: only a hole-free range may be stored back as
        # one extent — re-writing a hole would corrupt is_written().
        # The replacement holds the identical bytes, so outstanding
        # borrows stay valid: no sanitizer release.  When no overlapped
        # row hangs past the request (the usual whole-run read) this is
        # one direct slice assignment, no carve.
        if covered == nblocks:
            first = self._exts[lo]
            last = self._exts[hi - 1]
            if (first[_START] >= blkno
                    and last[_START] + last[_NBLK] <= end):
                self._exts[lo:hi] = [(blkno, nblocks, data, 0)]
                self._starts[lo:hi] = [blkno]
            else:
                self._place(blkno, nblocks, data, 0, release=False)
        return data

    def write(self, blkno: int, data: Buffer) -> None:
        """Write ``data`` (a whole number of blocks) starting at ``blkno``.

        Immutable ``bytes`` are adopted by reference; mutable buffers are
        snapshotted with one counted copy.
        """
        nbytes = len(data)
        self._check_aligned(nbytes)
        nblocks = nbytes // self.block_size
        self.check_range(blkno, nblocks)
        if isinstance(data, bytes):
            buf: Buffer = data
        else:
            count_copy(nbytes)
            buf = bytes(data)
        self._place(blkno, nblocks, buf, 0)

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

    def written_blocks(self) -> int:
        """Number of distinct blocks ever written (space accounting)."""
        return self._written

    # -- vectored / zero-copy API -------------------------------------------

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

    def write_refs(self, blkno: int, refs: Sequence[ExtentRef]) -> None:
        """Adopt borrowed ranges as extents (zero-copy when block-aligned).

        The handing-over side must not mutate the referenced ranges after
        this call; the store keeps them by reference.  Contiguous refs
        over one buffer merge into a single row *here*, at adopt time, so
        the read side never pays a merge.
        """
        bs = self.block_size
        total = 0
        aligned = True
        for r in refs:
            total += r.nbytes
            if r.nbytes % bs:
                aligned = False
        self._check_aligned(total)
        nblocks = total // bs
        self.check_range(blkno, nblocks)
        san = sanitizer()
        if not aligned:
            # Unaligned pieces: fall back to one materialized image
            # (reading the refs' bytes, so adoption is notified after).
            self.write(blkno, materialize_refs(refs))
            if san is not None:
                san.on_adopt(self, refs)
            return
        idx = self._carve(blkno, blkno + nblocks)
        rows: List[tuple] = []
        cursor = blkno
        for r in refs:
            if not r.nbytes:
                continue
            n = r.nbytes // bs
            if rows:
                prev = rows[-1]
                if (prev[_BUF] is r.buf
                        and prev[_OFF] + prev[_NBLK] * bs == r.start):
                    # Adopt-time coalescing: the ref continues the same
                    # buffer contiguously.
                    rows[-1] = (prev[_START], prev[_NBLK] + n, prev[_BUF],
                                prev[_OFF])
                    cursor += n
                    continue
            rows.append((cursor, n, r.buf, r.start))
            cursor += n
        if rows:
            self._splice(idx, rows)
            self._written += nblocks
        if san is not None:
            san.on_adopt(self, refs)

    def readv(self, blkno: int, nblocks: int) -> List[memoryview]:
        """Zero-copy views covering the request (zeros for holes)."""
        return [r.view() for r in self.read_refs(blkno, nblocks)]

    def writev(self, blkno: int, parts: Sequence[Buffer]) -> None:
        """Write a sequence of buffers at consecutive block positions.

        The whole part list lands as one batch: one carve over the
        covered range, one row splice — the segment writer's 256-part
        vectored append is O(parts), not O(parts x rows).
        """
        bs = self.block_size
        rows: List[tuple] = []
        cursor = blkno
        for part in parts:
            nbytes = len(part)
            if not nbytes:
                continue
            self._check_aligned(nbytes)
            if isinstance(part, bytes):
                buf: Buffer = part
            else:
                count_copy(nbytes)
                buf = bytes(part)
            rows.append((cursor, nbytes // bs, buf, 0))
            cursor += nbytes // bs
        if not rows:
            return
        nblocks = cursor - blkno
        self.check_range(blkno, nblocks)
        idx = self._carve(blkno, blkno + nblocks)
        self._splice(idx, rows)
        self._written += nblocks

    # -- media imaging ------------------------------------------------------

    def snapshot(self) -> object:
        # Rows are immutable tuples and extent buffers are never mutated
        # in place, so a shallow list copy *is* a deep image: later
        # writes splice in new rows, never touch old ones.  O(runs)
        # pointer copies — the crash matrix snapshots per crash point.
        return list(self._exts)

    def restore(self, image: object) -> None:
        if not isinstance(image, list):
            from repro.errors import InvalidArgument
            raise InvalidArgument("not an ExtentStore image")
        san = sanitizer()
        if san is not None:
            # Wholesale content replacement: every outstanding borrow of
            # this store is now stale.
            san.on_release(self, 0, self.capacity_blocks,
                           reason="replaced by a media-image restore")
        self._exts = [(s, n, buf, off) for s, n, buf, off in image]
        self._starts = [row[_START] for row in self._exts]
        self._written = sum(row[_NBLK] for row in self._exts)
