"""Runtime borrow sanitizer: trap use-after-release on lent extent refs.

HL011 proves statically that a borrowed :class:`ExtentRef` never
*escapes* the borrowing call; this module enforces the complementary
dynamic contract — a borrow must not be *used* after the lending store
has released the underlying range.  A store releases a range when it is
overwritten (``writev``, whichever adapter it entered through),
discarded, or replaced wholesale by ``restore``; a ref is also dead once
``writev`` adopts it into a store, because ownership moved with it.

With the sanitizer installed (``REPRO_SANITIZE=borrow`` in the
environment, or :func:`install` from code), every ``read_refs`` on an
:class:`~repro.blockdev.extent.ExtentStore` returns :class:`GuardedRef`
instances registered in a per-store ledger.  Releasing an overlapping
block range poisons the outstanding guards; any later ``view()`` on a
poisoned ref raises :class:`BorrowViolation` with the release reason.
Metadata access (``.nbytes``, ``len()``, ``.buf``) stays open — the data
path legitimately sizes ref lists after handing them over — so only a
read or write of the *bytes* trips the trap.

The hooks live behind :func:`repro.blockdev.datapath.set_sanitizer`, so
the block-device layer never imports this module; with no sanitizer
installed the data path is untouched (one ``None`` check per store
operation).

Deliberately stricter than CPython's garbage collector: an overwritten
extent's old buffer usually stays alive (buffers are never mutated in
place), so stale reads return plausible bytes instead of crashing.  The
sanitizer turns that silent staleness into a hard error at the exact
use site, which is what makes the crash-consistency and extent property
suites meaningful under ``REPRO_SANITIZE=borrow`` in CI.
"""

from __future__ import annotations

import os
import weakref
from typing import List, Mapping, Optional, Sequence

from repro.blockdev import datapath
from repro.blockdev.datapath import Buffer, ExtentRef

__all__ = [
    "ENV_VAR",
    "MODE_BORROW",
    "BorrowSanitizer",
    "BorrowViolation",
    "GuardedRef",
    "current",
    "install",
    "install_from_env",
    "uninstall",
]

ENV_VAR = "REPRO_SANITIZE"
MODE_BORROW = "borrow"


class BorrowViolation(RuntimeError):
    """A borrowed extent range was used after its store released it."""


class _Guard:
    """Shared poison flag between a GuardedRef and its ledger entry."""

    __slots__ = ("poisoned", "reason", "origin")

    def __init__(self, origin: str) -> None:
        self.poisoned = False
        self.reason = ""
        self.origin = origin


class GuardedRef(ExtentRef):
    """An :class:`ExtentRef` whose ``view()`` traps after release."""

    __slots__ = ("_guard", "__weakref__")

    def __init__(self, buf: Buffer, start: int, nbytes: int,
                 guard: _Guard) -> None:
        super().__init__(buf, start, nbytes)
        self._guard = guard

    def view(self):
        if self._guard.poisoned:
            raise BorrowViolation(
                f"use of a released borrow from {self._guard.origin}: "
                f"{self._guard.reason}")
        return super().view()

    def __repr__(self) -> str:
        state = "poisoned" if self._guard.poisoned else "live"
        return f"GuardedRef({state}, {super().__repr__()})"


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


def install_from_env(
        env: Optional[Mapping[str, str]] = None
) -> Optional[BorrowSanitizer]:
    """Install iff ``REPRO_SANITIZE=borrow`` is set (CI entry point)."""
    source: Mapping[str, str] = env if env is not None else os.environ
    if source.get(ENV_VAR, "").strip().lower() == MODE_BORROW:
        return install()
    return None
