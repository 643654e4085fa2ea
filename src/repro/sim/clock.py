"""A monotonically advancing virtual clock."""

from __future__ import annotations


class VirtualClock:
    """Monotonic virtual time source.

    Single-actor code paths (e.g. one benchmark process doing file I/O)
    drive one clock directly; multi-actor runs give each actor its own
    clock and let resources serialise them.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, duration: float) -> float:
        """Advance by ``duration`` seconds and return the new time."""
        if duration < 0:
            raise ValueError(f"cannot advance clock by {duration!r} seconds")
        self._now += duration
        return self._now

    def advance_each(self, duration: float, times: int) -> float:
        """Advance by ``duration``, ``times`` times over, and return the
        new time: that many float additions, which on a float clock are
        not one advance by ``times * duration``."""
        if duration < 0:
            raise ValueError(f"cannot advance clock by {duration!r} seconds")
        now = self._now
        for _ in range(times):
            now += duration
        self._now = now
        return now

    def advance_to(self, when: float) -> float:
        """Advance to absolute time ``when`` (no-op if already past it)."""
        if when > self._now:
            self._now = when
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
