"""Data-path plumbing: extent refs and copy accounting.

The paper's design argument is that 1 MB segments amortize device costs
into large sequential transfers; the simulator's *host* data path should
match.  This module carries the three shared pieces:

* :class:`ExtentRef` — a (buffer, offset, length) handle on a byte range
  inside a store.  Refs are how whole segment images travel between
  stores without being copied: a ref adopted by a store is kept by
  reference, under the contract that nobody mutates the referenced
  region afterwards (stores themselves never mutate extent buffers in
  place — writes always *replace* extents).
* **Copy accounting** — every host-memory byte copy performed by the
  device data path funnels through :func:`count_copy`, which feeds both
  a cheap process-local counter (readable with the metrics registry
  disabled) and the ``datapath_bytes_copied_total`` metric.
* :class:`BlockIO` — the bytes verbs (``read``, ``write``,
  ``write_refs``) as adapters over the two every layer implements: the
  borrowed ``read_refs`` and the gather ``writev``.

Virtual-time charging is untouched by any of this: a device operation
charges by its size, however the bytes travel on the host.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro import obs

__all__ = [
    "BlockIO",
    "Buffer",
    "ExtentRef",
    "Part",
    "as_ref",
    "block_views",
    "run_views",
    "bytes_copied_total",
    "count_copy",
    "flush_copy_metric",
    "materialize_refs",
    "ref_of",
    "refs_nbytes",
    "sanitizer",
    "set_sanitizer",
    "split_parts",
    "zeros",
]

#: Acceptable data-bearing argument types for store writes.
Buffer = Union[bytes, bytearray, memoryview]

# -- borrow sanitizer registry -----------------------------------------------
#
# The runtime borrow sanitizer (repro.analysis.sanitize) registers itself
# here; the stores call the three hooks through this indirection so the
# block-device layer never imports the analysis package.  With nothing
# installed the cost is one None check per store operation.

_SANITIZER = None


def set_sanitizer(san):
    """Install (or, with None, remove) the borrow sanitizer; returns the
    previously installed one."""
    global _SANITIZER
    old, _SANITIZER = _SANITIZER, san
    return old


def sanitizer():
    """The installed borrow sanitizer, or None."""
    return _SANITIZER


# -- copy accounting ---------------------------------------------------------

_bytes_copied = 0
#: High-water mark of what has been published into the obs metric; the
#: unpublished delta is flushed lazily by :func:`flush_copy_metric`.
_bytes_published = 0


def count_copy(nbytes: int) -> None:
    """Account ``nbytes`` of host-memory copying in the data path.

    Deliberately just an integer add: this sits on the per-block hot
    path, so a registry lookup per call would itself become the ledger
    overhead the extent mode exists to remove.  The accumulated delta
    reaches the ``datapath_bytes_copied_total`` metric through
    :func:`flush_copy_metric`, which ``obs`` runs before every snapshot
    and reset — observers never see a stale value, and runs with no
    observer pay nothing."""
    global _bytes_copied
    _bytes_copied += nbytes


def flush_copy_metric() -> int:
    """Publish the unpublished copied-byte delta into the obs metric;
    returns the delta.  Registered as an ``obs`` flusher at import."""
    global _bytes_published
    delta = _bytes_copied - _bytes_published
    if delta:
        obs.counter("datapath_bytes_copied_total",
                    "host bytes physically copied by the device data "
                    "path").inc(delta)
        _bytes_published = _bytes_copied
    return delta


def bytes_copied_total() -> int:
    """Process-lifetime copied bytes (independent of the obs registry)."""
    return _bytes_copied


obs.register_flusher(flush_copy_metric)


# -- extent refs -------------------------------------------------------------

class ExtentRef:
    """A borrowed byte range: ``buf[start:start + nbytes]``.

    ``buf`` is a :class:`bytes`, :class:`bytearray`, or
    :class:`memoryview` base object.  A ref handed to
    ``writev``/``line_writev`` is *adopted*: the receiving store
    keeps the reference instead of copying, so the handing-over side
    must never mutate the range again (append-only staging buffers and
    immutable ``bytes`` images satisfy this by construction).
    """

    __slots__ = ("buf", "start", "nbytes")

    def __init__(self, buf: Buffer, start: int, nbytes: int) -> None:
        self.buf = buf
        self.start = start
        self.nbytes = nbytes

    def view(self) -> memoryview:
        """A zero-copy window on the referenced range."""
        return memoryview(self.buf)[self.start:self.start + self.nbytes]

    def __len__(self) -> int:
        return self.nbytes


#: One element of a gather write: a buffer, or a borrowed range.
Part = Union[bytes, bytearray, memoryview, ExtentRef]


def ref_of(data: Buffer) -> ExtentRef:
    """Wrap a whole buffer as one ref."""
    return ExtentRef(data, 0, len(data))


def refs_nbytes(refs: Sequence[ExtentRef]) -> int:
    """Total bytes covered by a ref list."""
    return sum(r.nbytes for r in refs)


def as_ref(part: Part) -> ExtentRef:
    """A part as a ref: refs pass through, buffers are wrapped whole."""
    return part if isinstance(part, ExtentRef) else ref_of(part)


def split_parts(parts: Sequence[Part], nbytes: int
                ) -> "tuple[List[Part], List[Part]]":
    """Split a write's part list at a byte boundary, zero-copy.

    A part that straddles the boundary is narrowed without changing
    what the store's copy rule makes of it: a ref or an immutable
    ``bytes`` becomes two refs over the same buffer, a mutable buffer
    two memoryview windows (which the store still snapshots).
    """
    head: List[Part] = []
    tail: List[Part] = []
    need = nbytes
    for p in parts:
        n = len(p)
        if need <= 0:
            tail.append(p)
        elif n <= need:
            head.append(p)
            need -= n
        else:
            if isinstance(p, (ExtentRef, bytes)):
                r = as_ref(p)
                head.append(ExtentRef(r.buf, r.start, need))
                tail.append(ExtentRef(r.buf, r.start + need, n - need))
            else:
                view = memoryview(p)
                head.append(view[:need])
                tail.append(view[need:])
            need = 0
    return head, tail


def run_views(refs: Sequence[ExtentRef], block_size: int) -> List[Buffer]:
    """Contiguous whole-block *runs* over a ref list, zero-copy.

    This is the run-batched counterpart of :func:`block_views`: one
    buffer per contiguous ref instead of one per block, so a 1 MB
    segment that travels as a single ref stays a single memoryview —
    O(runs) objects, not O(256 blocks).  A ref that is exactly one
    whole-``bytes`` image passes through unchanged; only a block that
    straddles two refs is joined (and counted) — store refs are
    block-aligned, so in practice nothing is copied.
    """
    out: List[Buffer] = []
    carry: List[memoryview] = []
    carry_len = 0
    for ref in refs:
        off = 0
        if carry_len:
            take = min(block_size - carry_len, ref.nbytes)
            carry.append(ref.view()[:take])
            carry_len += take
            off = take
            if carry_len == block_size:
                count_copy(block_size)
                out.append(b"".join(bytes(v) for v in carry))
                carry, carry_len = [], 0
        whole = (ref.nbytes - off) // block_size
        if whole:
            nbytes = whole * block_size
            if (off == 0 and isinstance(ref.buf, bytes)
                    and ref.start == 0 and ref.nbytes == nbytes
                    and len(ref.buf) == nbytes):
                out.append(ref.buf)  # an adopted whole image, as-is
            else:
                out.append(ref.view()[off:off + nbytes])
            off += nbytes
        if off < ref.nbytes:
            carry.append(ref.view()[off:])
            carry_len += ref.nbytes - off
    if carry_len:
        raise ValueError(
            f"refs not block-aligned: {carry_len} trailing bytes")
    return out


def block_views(refs: Sequence[ExtentRef], block_size: int) -> List[Buffer]:
    """Per-block buffers over a ref list, zero-copy.

    A ref holding exactly one whole-``bytes`` block passes through
    unchanged; larger refs yield memoryview slices.  Prefer
    :func:`run_views` on hot paths — it hands back whole contiguous
    runs instead of splitting them into per-block objects.
    """
    out: List[Buffer] = []
    for run in run_views(refs, block_size):
        nbytes = len(run)
        if nbytes == block_size:
            out.append(run)
            continue
        view = run if isinstance(run, memoryview) else memoryview(run)
        out.extend(view[i:i + block_size]
                   for i in range(0, nbytes, block_size))
    return out


def materialize_refs(refs: Sequence[ExtentRef]) -> bytes:
    """Copy a ref list into one contiguous ``bytes`` (counted).

    The single-ref whole-``bytes`` case is free: the ref *is* already an
    immutable contiguous image, so it is returned as-is.  A single ref
    into the shared zero buffer is free too, as a fresh ``bytes(n)``:
    zero-filling is an allocation, not a copy, and the count must not
    depend on how far :func:`zeros` has grown the buffer.
    """
    if len(refs) == 1:
        ref = refs[0]
        if ref.buf is _zero_buf:
            return bytes(ref.nbytes)
        if (isinstance(ref.buf, bytes) and ref.start == 0
                and ref.nbytes == len(ref.buf)):
            return ref.buf
    total = refs_nbytes(refs)
    count_copy(total)
    return b"".join(r.view() for r in refs)


# -- the two verbs -----------------------------------------------------------

class BlockIO:
    """The bytes verbs of a block layer, defined once over its two.

    Every data-path layer — the store, the disks, the drives, the
    jukebox, Footprint, the block map — implements exactly one borrowed
    read, ``read_refs(*addr, nblocks)``, and one gather write,
    ``writev(*addr, parts)``; ``addr`` is whatever the layer addresses
    by (a block; an actor and a block; an actor, a volume and a block).
    The store applies the one copy rule to the parts (see
    :meth:`repro.blockdev.extent.ExtentStore.writev`); every layer above
    hands them down untouched.  The bytes names below are adapters.
    """

    __slots__ = ()

    def read(self, *addr_and_nblocks) -> bytes:
        """:meth:`read_refs` joined into one image (:func:`materialize_refs`)."""
        return materialize_refs(self.read_refs(*addr_and_nblocks))

    def write(self, *addr_and_data) -> None:
        """Write one buffer: a one-part :meth:`writev`."""
        *addr, data = addr_and_data
        self.writev(*addr, [data])

    def write_refs(self, *addr_and_refs) -> None:
        """Adopt borrowed ranges: :meth:`writev` of the ref list."""
        self.writev(*addr_and_refs)


# -- shared zero source ------------------------------------------------------

_zero_buf = bytes(0)


def zeros(nbytes: int) -> bytes:
    """A shared all-zeros buffer at least ``nbytes`` long (callers slice
    or ref into it; sparse reads of unwritten ranges borrow from here
    instead of allocating per read)."""
    global _zero_buf
    if len(_zero_buf) < nbytes:
        _zero_buf = bytes(max(nbytes, 2 * len(_zero_buf)))
    return _zero_buf
