"""LRU recency tracking shared by the buffer cache and the segment cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)


class LRUTracker(Generic[K]):
    """Tracks recency of a set of keys; O(1) touch and eviction-candidate pop.

    This deliberately does not store values: HighLight's segment cache keeps
    its data in disk segments and only needs an ordering over cache lines,
    and the buffer cache keeps buffers in its own table.
    """

    def __init__(self) -> None:
        self._order: "OrderedDict[K, None]" = OrderedDict()

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from least- to most-recently used."""
        return iter(self._order)

    def touch(self, key: K) -> None:
        """Mark ``key`` most-recently used, inserting it if absent."""
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._order[key] = None

    def discard(self, key: K) -> None:
        """Forget ``key`` if present."""
        self._order.pop(key, None)
