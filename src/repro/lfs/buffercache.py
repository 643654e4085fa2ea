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

    def get_run(self, inum: int, lbn: int, end: int) -> List[bytes]:
        """:meth:`get` of ``(inum, lbn)``, ``(inum, lbn + 1)``, … up to
        ``end``, stopping after the first miss: the data of the cached
        prefix.  A prefix shorter than the run means the key after it
        was counted as a miss."""
        bufs = self._bufs
        seq = self._seq
        touch_clean = self._clean.move_to_end
        out: List[bytes] = []
        for lbn in range(lbn, end):
            buf = bufs.get((inum, lbn))
            if buf is None:
                self.misses += 1
                self._miss_series.inc()
                break
            buf.seq = seq = seq + 1
            if not buf.dirty:
                touch_clean(buf.key)
            out.append(buf.data)
        if out:
            self._seq = seq
            self.hits += len(out)
            self._hit_series.inc(len(out))
        return out

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

    def absent_run(self, inum: int, lbn: int, n: int) -> int:
        """How many of ``(inum, lbn)``, ``(inum, lbn + 1)``, … (at most
        ``n``) are not cached, in a row; like :meth:`peek`, this touches
        and counts nothing."""
        bufs = self._bufs
        for i in range(n):
            if (inum, lbn + i) in bufs:
                return i
        return max(n, 0)

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

    def put_run(self, inum: int, lbn: int, blocks: Sequence[bytes],
                dirty: bool, touch: Sequence[BufKey] = ()) -> int:
        """:meth:`put` of ``blocks[i]`` at ``(inum, lbn + i)``, in order,
        as one update; returns how many blocks were put.

        The run stops at the first key cached differently from the
        first, so it either rewrites buffered blocks (nothing is evicted)
        or inserts new ones, whose evictions are taken at once: the same
        victims, in the same order, as one put at a time.  With
        ``touch`` (dirty inserts only), each put after the first is
        preceded by a :meth:`get` of every key of ``touch``, as a bmap
        through a pointer block gets it; the run then also stops after
        the put that evicts a cached key of ``touch``, which the next
        get would miss.
        """
        bufs = self._bufs
        total = len(blocks)
        if (inum, lbn) in bufs:
            seq, clean, n = self._seq, self._clean, 0
            while n < total:
                key = (inum, lbn + n)
                buf = bufs.get(key)
                if buf is None:
                    break
                buf.data = blocks[n]
                if dirty and not buf.dirty:
                    buf.dirty = True
                    self._dirty[key] = buf
                    del clean[key]
                buf.seq = seq = seq + 1
                if not buf.dirty:
                    clean.move_to_end(key)
                n += 1
            self._seq = seq
            return n
        if touch and not dirty:
            raise InvalidArgument("touch keys go with dirty puts only")
        clean, cap, before = self._clean, self.capacity_blocks, len(bufs)
        queued = len(clean)
        held = [bufs[key] for key in touch if key in bufs]
        held_clean = [buf.key for buf in held if not buf.dirty]
        limit = total
        if held_clean:
            # Victims come from the front of the clean queue and the
            # touched keys sit at its back: they last until the others
            # run out.
            limit = min(total, max(1, queued - len(held_clean) + cap - before
                                   + 1))
        # Put i stamps seq + 1 + i * stride; the touches before it take
        # the stride - 1 stamps in between, and the last ones stay.
        stride = len(held) + 1
        seq = stamp = self._seq + 1
        n = 0
        while n < limit:
            key = (inum, lbn + n)
            if n and key in bufs:
                break
            buf = bufs[key] = Buffer(key, blocks[n], dirty)
            buf.seq = stamp
            stamp += stride
            if dirty:
                self._dirty[key] = buf
            else:
                clean[key] = None
            n += 1
        self._seq = stamp - stride
        rounds = n - 1 if touch else 0
        if rounds:
            last = seq + (rounds - 1) * stride
            for i, buf in enumerate(held, 1):
                buf.seq = last + i
            for key in held_clean:
                clean.move_to_end(key)
            self.hits += rounds * len(held)
            missed = rounds * (len(touch) - len(held))
            if held:
                self._hit_series.inc(rounds * len(held))
            if missed:
                self.misses += missed
                self._miss_series.inc(missed)
        if before + n > cap:  # a put found the cache full
            if not self._clean_sorted:
                for key in sorted(clean, key=lambda k: bufs[k].seq):
                    clean.move_to_end(key)
                self._clean_sorted = True
            victims = min(queued if dirty else queued + n - 1,
                          before + n - cap)
            for _ in range(victims):
                del bufs[clean.popitem(last=False)[0]]
            if victims:
                self._eviction_series.inc(victims)
        return n

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
