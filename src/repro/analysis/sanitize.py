"""Runtime borrow sanitizer: trap use-after-release on lent extent refs.

The zero-copy data path lends :class:`ExtentRef` windows over buffers a
store still owns.  The contract this module enforces is that a borrow
must not be *used* after the lending store has released the underlying
range.  A store releases a range when it is overwritten (``writev``,
whichever adapter it entered through), discarded, or replaced wholesale
by ``restore``; a ref is also dead once ``writev`` adopts it into a
store, because ownership moved with it.

With the sanitizer installed (:func:`install`), every ``read_refs`` on an
:class:`~repro.blockdev.extent.ExtentStore` returns :class:`GuardedRef`
instances registered in a per-store ledger.  Releasing an overlapping
block range poisons the outstanding guards; any later read of a
poisoned ref's buffer — ``.buf``, hence ``view()`` and the fast paths of
``materialize_refs``/``run_views`` that hand a whole ``bytes`` image on
as-is — raises :class:`BorrowViolation` with the release reason.
Metadata (``.nbytes``, ``len()``) stays open — the data path
legitimately sizes ref lists after handing them over — so only a read
or write of the *bytes* trips the trap.

The hooks live behind :func:`repro.blockdev.datapath.set_sanitizer`, so
the block-device layer never imports this module; with no sanitizer
installed the data path is untouched (one ``None`` check per store
operation).

Deliberately stricter than CPython's garbage collector: an overwritten
extent's old buffer usually stays alive (buffers are never mutated in
place), so stale reads return plausible bytes instead of crashing.  The
sanitizer turns that silent staleness into a hard error at the exact
use site.  Every tier-1 test runs with it armed (``tests/conftest.py``),
so a borrow kept past its release fails the suite wherever it is read.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence

from repro.blockdev import datapath
from repro.blockdev.datapath import Buffer, ExtentRef

__all__ = [
    "BorrowSanitizer",
    "BorrowViolation",
    "GuardedRef",
    "current",
    "install",
    "uninstall",
]


class BorrowViolation(RuntimeError):
    """A borrowed extent range was used after its store released it."""


class _Guard:
    """Shared poison flag between a GuardedRef and its ledger entry."""

    __slots__ = ("poisoned", "reason", "origin")

    def __init__(self, origin: str) -> None:
        self.poisoned = False
        self.reason = ""
        self.origin = origin


#: The buffer slot of ExtentRef, under GuardedRef's trapping ``buf``.
_BUF = ExtentRef.buf


class GuardedRef(ExtentRef):
    """An :class:`ExtentRef` whose bytes trap after release: ``buf``, and
    so ``view()`` and every helper that reads the buffer, raise."""

    __slots__ = ("_guard", "__weakref__")

    def __init__(self, buf: Buffer, start: int, nbytes: int,
                 guard: _Guard) -> None:
        super().__init__(buf, start, nbytes)
        self._guard = guard

    @property
    def buf(self) -> Buffer:
        if self._guard.poisoned:
            raise BorrowViolation(
                f"use of a released borrow from {self._guard.origin}: "
                f"{self._guard.reason}")
        return _BUF.__get__(self)

    @buf.setter
    def buf(self, value: Buffer) -> None:
        _BUF.__set__(self, value)

    def __repr__(self) -> str:
        state = "poisoned" if self._guard.poisoned else "live"
        return (f"GuardedRef({state}, {type(_BUF.__get__(self)).__name__}"
                f"[{self.start}:{self.start + self.nbytes}])")


class BorrowSanitizer:
    """The ledger: which lent refs cover which blocks of which store."""

    def __init__(self) -> None:
        #: store -> [start_blk, end_blk, weakref(ref), guard] entries.
        self._ledger: "weakref.WeakKeyDictionary[object, List[list]]" = \
            weakref.WeakKeyDictionary()
        self.borrows = 0
        self.poisons = 0

    # -- hook points (called by the extent store) ---------------------------

    def on_borrow(self, store, blkno: int,
                  refs: Sequence[ExtentRef]) -> List[ExtentRef]:
        """Wrap freshly lent refs and enter them in the ledger."""
        bs = store.block_size
        entries = self._ledger.setdefault(store, [])
        self._prune(entries)
        out: List[ExtentRef] = []
        cursor = blkno * bs
        for r in refs:
            origin = (f"{type(store).__name__} blocks "
                      f"[{cursor // bs}, {-(-(cursor + r.nbytes) // bs)})")
            guard = _Guard(origin)
            guarded = GuardedRef(r.buf, r.start, r.nbytes, guard)
            entries.append([cursor // bs, -(-(cursor + r.nbytes) // bs),
                            weakref.ref(guarded), guard])
            out.append(guarded)
            cursor += r.nbytes
            self.borrows += 1
        return out

    def on_release(self, store, blkno: int, end: int,
                   reason: str = "overwritten or discarded") -> None:
        """Poison outstanding borrows overlapping [blkno, end)."""
        entries = self._ledger.get(store)
        if not entries:
            return
        keep: List[list] = []
        for entry in entries:
            start_blk, end_blk, ref_w, guard = entry
            if ref_w() is None:
                continue  # the borrow died naturally
            if start_blk < end and end_blk > blkno:
                guard.poisoned = True
                guard.reason = f"blocks [{blkno}, {end}) were {reason}"
                self.poisons += 1
            else:
                keep.append(entry)
        entries[:] = keep

    def on_adopt(self, store, refs: Sequence[ExtentRef]) -> None:
        """Poison refs whose ownership just moved into ``store``."""
        for r in refs:
            guard = getattr(r, "_guard", None)
            if guard is not None and not guard.poisoned:
                guard.poisoned = True
                guard.reason = (f"the ref was adopted by "
                                f"{type(store).__name__}.writev "
                                f"(ownership moved)")
                self.poisons += 1

    # -- accounting ---------------------------------------------------------

    @staticmethod
    def _prune(entries: List[list]) -> None:
        entries[:] = [e for e in entries if e[2]() is not None]


# -- installation -------------------------------------------------------------

def install(sanitizer: Optional[BorrowSanitizer] = None) -> BorrowSanitizer:
    """Activate a sanitizer on the data path; returns it."""
    san = sanitizer if sanitizer is not None else BorrowSanitizer()
    datapath.set_sanitizer(san)
    return san


def uninstall() -> Optional[BorrowSanitizer]:
    """Deactivate; returns the sanitizer that was active, if any."""
    return datapath.set_sanitizer(None)


def current() -> Optional[BorrowSanitizer]:
    """The active sanitizer, or None."""
    return datapath.sanitizer()

