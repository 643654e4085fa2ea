"""Actors: logical processes with local virtual clocks."""

from __future__ import annotations

from typing import Dict

from repro import obs
from repro.sim.clock import VirtualClock


class TimeAccount:
    """Accumulates virtual time into named categories.

    Table 4 of the paper breaks migration elapsed time into *Footprint
    write*, *I/O server read*, and *migrator queuing* buckets; a
    ``TimeAccount`` is how our pipeline produces the same breakdown.

    The local bucket map is authoritative; each charge is also mirrored
    into the process-wide metrics registry (``time_account_seconds_total``)
    so snapshots see the same numbers the bench tables report.
    """

    def __init__(self) -> None:
        self._buckets: Dict[str, float] = {}
        self._series: Dict[str, object] = {}  # category -> bound counter

    def charge(self, category: str, seconds: float) -> None:
        """Add ``seconds`` to ``category``."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._buckets[category] = self._buckets.get(category, 0.0) + seconds
        series = self._series.get(category)
        if series is None:
            series = self._series[category] = obs.counter(
                "time_account_seconds_total",
                "virtual seconds charged to accounting categories",
                ("category",)).labels(category=category)
        series.inc(seconds)

    def get(self, category: str) -> float:
        """Total seconds charged to ``category`` (0.0 if never charged)."""
        return self._buckets.get(category, 0.0)

    def total(self) -> float:
        """Sum over all categories."""
        return sum(self._buckets.values())

    def breakdown(self) -> Dict[str, float]:
        """A copy of the category -> seconds map."""
        return dict(self._buckets)

    def clear(self) -> None:
        """Drop all charges."""
        self._buckets.clear()


class Actor:
    """A logical process: a name and a local clock.

    The service process, I/O server, migrator, cleaner, and the benchmark's
    foreground "application" are each one actor.  Device operations advance
    the *calling* actor's clock; shared resources push the start of an
    operation out to when the resource frees up, which is how cross-actor
    contention manifests.
    """

    def __init__(self, name: str, clock: VirtualClock | None = None) -> None:
        self.name = name
        self.clock = clock if clock is not None else VirtualClock()

    @property
    def time(self) -> float:
        """The actor's local virtual time."""
        return self.clock.now

    def sleep(self, duration: float) -> None:
        """Consume ``duration`` seconds of local time (pure delay)."""
        self.clock.advance(duration)

    def sleep_until(self, when: float) -> None:
        """Advance local time to ``when`` if it is in the future."""
        self.clock.advance_to(when)
