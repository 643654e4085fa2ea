"""The block buffer cache.

Keyed by (inum, logical block); dirty blocks are pinned until the segment
writer relocates them to the log.  The paper's test machine had 3.2 MB of
buffer cache and the benchmarks flush it before every phase — both
behaviours are supported.  Charging of per-block CPU time happens in the
filesystem layer, not here; this structure is pure bookkeeping.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import InvalidArgument
from repro.lfs.constants import BLOCK_SIZE
from repro.util.units import MB

BufKey = Tuple[int, int]  # (inum, logical block number)

_by_seq = attrgetter("seq")
_by_key = attrgetter("key")


class Buffer:
    """One cached block."""

    __slots__ = ("key", "data", "dirty", "seq")

    def __init__(self, key: BufKey, data: bytes, dirty: bool = False) -> None:
        if len(data) != BLOCK_SIZE:
            raise InvalidArgument(
                f"buffer must be {BLOCK_SIZE}B, got {len(data)}")
        self.key = key
        self.data = data
        self.dirty = dirty
        self.seq = 0  # last-touch sequence number (the recency order)


class BufferCache:
    """A size-capped LRU cache of file blocks."""

    def __init__(self, capacity_bytes: int = int(3.2 * MB)) -> None:
        self.capacity_blocks = max(8, capacity_bytes // BLOCK_SIZE)
        self._bufs: Dict[BufKey, Buffer] = {}
        #: The dirty buffers, so the writer's scans and needs_flush() cost
        #: O(dirty), not O(cache).
        self._dirty: Dict[BufKey, Buffer] = {}
        self.hits = 0
        self.misses = 0
        # Recency is the touch sequence stamped on each buffer; the
        # victim is the *clean* buffer with the smallest one (DESIGN.md
        # "Buffer cache recency").  ``_clean`` queues exactly the clean
        # keys in that order, so a touch is one move_to_end and an
        # eviction one popitem.  Only mark_clean() can break the order —
        # a flushed buffer re-enters at its old recency — so it appends
        # and the queue is re-sorted once before the next eviction.
        self._seq = 0
        self._clean: "OrderedDict[BufKey, None]" = OrderedDict()
        self._clean_sorted = True
        self._hit_series = obs.counter(
            "buffercache_hits_total", "block buffer cache hits").labels()
        self._miss_series = obs.counter(
            "buffercache_misses_total", "block buffer cache misses").labels()
        self._eviction_series = obs.counter(
            "buffercache_evictions_total",
            "clean blocks evicted to make room").labels()

    def dirty_count(self) -> int:
        return len(self._dirty)

    # -- lookup/insert -----------------------------------------------------

    def get(self, key: BufKey) -> Optional[bytes]:
        buf = self._bufs.get(key)
        if buf is None:
            self.misses += 1
            self._miss_series.inc()
            return None
        self.hits += 1
        self._hit_series.inc()
        self._seq = buf.seq = self._seq + 1
        if not buf.dirty:
            self._clean.move_to_end(key)
        return buf.data

    def hit_all(self, keys: Sequence[BufKey]) -> bool:
        """:meth:`get` on each of ``keys`` in order, provided every one of
        them is cached; if one is not, touch and count nothing."""
        bufs = self._bufs
        try:
            found = [bufs[key] for key in keys]
        except KeyError:
            return False
        if found:
            seq = self._seq
            touch_clean = self._clean.move_to_end
            for buf in found:
                buf.seq = seq = seq + 1
                if not buf.dirty:
                    touch_clean(buf.key)
            self._seq = seq
            self.hits += len(found)
            self._hit_series.inc(len(found))
        return True

    def repeat(self, keys: Sequence[BufKey], times: int,
               reput: bool = False) -> None:
        """:meth:`get` on each of ``keys`` in order, ``times`` rounds over
        — each round closed, with ``reput``, by a :meth:`put` of the last
        key's own data (which must be cached and dirty) — as one update.

        Every get is counted, a hit on a cached key and a miss on an
        absent one, and recency ends as the last round leaves it.
        Nothing is inserted, so nothing is evicted.
        """
        found = [buf for buf in map(self._bufs.get, keys) if buf is not None]
        seq = self._seq + (times - 1) * (len(found) + reput)
        touch_clean = self._clean.move_to_end
        for buf in found:
            buf.seq = seq = seq + 1
            if not buf.dirty:
                touch_clean(buf.key)
        if reput:
            self._bufs[keys[-1]].seq = seq = seq + 1
        self._seq = seq
        hits, misses = len(found) * times, (len(keys) - len(found)) * times
        if hits:
            self.hits += hits
            self._hit_series.inc(hits)
        if misses:
            self.misses += misses
            self._miss_series.inc(misses)

    def peek(self, key: BufKey) -> Optional[bytes]:
        """Lookup without recency update or hit accounting."""
        buf = self._bufs.get(key)
        return buf.data if buf is not None else None

    def put(self, key: BufKey, data: bytes, dirty: bool) -> None:
        """Insert/overwrite a block; evicts clean LRU blocks to make room."""
        buf = self._bufs.get(key)
        if buf is None:
            self._evict_for_room()
            buf = self._bufs[key] = Buffer(key, data, dirty)
            if dirty:
                self._dirty[key] = buf
        else:
            buf.data = data
            if dirty and not buf.dirty:
                buf.dirty = True
                self._dirty[key] = buf
                del self._clean[key]
        self._seq = buf.seq = self._seq + 1
        if not buf.dirty:
            self._clean[key] = None
            self._clean.move_to_end(key)

    def mark_clean(self, *keys: BufKey) -> None:
        for key in keys:
            buf = self._dirty.pop(key, None)
            if buf is not None:
                buf.dirty = False
                # Now evictable at its *existing* recency: mark_clean is
                # not a use, so ``seq`` stays and the queue is sorted by
                # it later.
                self._clean[key] = None
                self._clean_sorted = False

    def is_dirty(self, key: BufKey) -> bool:
        buf = self._bufs.get(key)
        return buf.dirty if buf is not None else False

    def _evict_for_room(self) -> None:
        bufs = self._bufs
        if len(bufs) < self.capacity_blocks:
            return
        clean = self._clean
        if not self._clean_sorted:
            # In place: a rebuilt queue is ~400 nodes freed and allocated
            # again after every segment flush.
            for key in sorted(clean, key=lambda k: bufs[k].seq):
                clean.move_to_end(key)
            self._clean_sorted = True
        while len(bufs) >= self.capacity_blocks and clean:
            del bufs[clean.popitem(last=False)[0]]
            self._eviction_series.inc()
        # Room not made means everything is dirty: caller must flush soon.

    # -- bulk operations -------------------------------------------------------

    def lru_order(self) -> List[BufKey]:
        """Every cached key, least recently touched first."""
        return [b.key for b in sorted(self._bufs.values(), key=_by_seq)]

    def dirty_buffers(self) -> List[Buffer]:
        """All dirty buffers (segment-writer input), LRU-first."""
        return sorted(self._dirty.values(), key=_by_seq)

    def dirty_by_key(self) -> List[Buffer]:
        """All dirty buffers in key order: file by file, by lbn."""
        return sorted(self._dirty.values(), key=_by_key)

    def dirty_for_inode(self, inum: int) -> List[Buffer]:
        return [b for b in self._dirty.values() if b.key[0] == inum]

    def invalidate(self, key: BufKey) -> None:
        """Drop one block regardless of state (truncate/unlink path)."""
        buf = self._bufs.pop(key, None)
        if buf is not None:
            if buf.dirty:
                del self._dirty[key]
            else:
                del self._clean[key]

    def invalidate_inode(self, inum: int) -> None:
        for key in [k for k in self._bufs if k[0] == inum]:
            self.invalidate(key)

    def drop_clean(self) -> int:
        """Flush-benchmark helper: discard every clean block."""
        dropped = len(self._clean)
        for key in self._clean:
            del self._bufs[key]
        self._clean.clear()
        return dropped

    def needs_flush(self) -> bool:
        """True when dirty blocks fill half the cache (the segment-write
        trigger)."""
        return self.dirty_count() >= self.capacity_blocks * 0.5
