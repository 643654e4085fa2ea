"""Property test: BufferCache against a naive list-scan LRU.

The cache keeps recency as a touch sequence on each buffer plus one
ordered queue of clean keys (DESIGN.md "Buffer cache recency").  The
reference below keeps one Python list in LRU order and scans it for the
first clean key — the obviously-right, O(n) form.  After every random
step the two must agree on everything a caller (or a virtual-time
number) can observe: the victims and their order, the whole recency
order, ``dirty_buffers()`` order, sizes, and hit/miss/eviction counts.
"""

import random

import pytest

from repro import obs
from repro.lfs.buffercache import BufferCache
from repro.lfs.constants import BLOCK_SIZE

CAPACITY = 8  # blocks: BufferCache's floor, so evictions come early


def block(n: int) -> bytes:
    return bytes([n & 0xFF]) * BLOCK_SIZE


class NaiveLRU:
    """The reference: a list in LRU order, scanned on every eviction."""

    def __init__(self, capacity_blocks: int) -> None:
        self.capacity = capacity_blocks
        self.order = []      # keys, least recently touched first
        self.data = {}
        self.dirty = set()
        self.hits = self.misses = 0
        self.victims = []

    def _touch(self, key):
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)

    def get(self, key):
        if key not in self.data:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return self.data[key]

    def hit_all(self, keys):
        if any(key not in self.data for key in keys):
            return False     # nothing touched, nothing counted
        for key in keys:
            self.get(key)
        return True

    def get_run(self, inum, lbn, end):
        out = []
        for n in range(lbn, end):
            data = self.get((inum, n))
            if data is None:
                break
            out.append(data)
        return out

    def put_run(self, inum, lbn, blocks, dirty, touch=()):
        """Per-block puts of the prefix cached like the first key; in an
        insert, each put after the first preceded by a get of every touch
        key, until a touch key cached at the start is gone."""
        cached = (inum, lbn) in self.data
        n = 1
        while n < len(blocks) and ((inum, lbn + n) in self.data) == cached:
            n += 1
        held = [key for key in touch if key in self.data]
        for i in range(n):
            if i and not cached:
                if any(key not in self.data for key in held):
                    return i
                for key in touch:
                    self.get(key)
            self.put((inum, lbn + i), blocks[i], dirty)
        return n

    def put(self, key, data, dirty):
        if key not in self.data:
            while len(self.data) >= self.capacity:
                victim = next((k for k in self.order
                               if k not in self.dirty), None)
                if victim is None:
                    break  # everything dirty: grow past capacity
                self._drop(victim)
                self.victims.append(victim)
        self.data[key] = data
        if dirty:
            self.dirty.add(key)
        self._touch(key)

    def mark_clean(self, key):
        self.dirty.discard(key)  # not a use: position unchanged

    def _drop(self, key):
        del self.data[key]
        self.order.remove(key)
        self.dirty.discard(key)

    def invalidate(self, key):
        if key in self.data:
            self._drop(key)

    def invalidate_inode(self, inum):
        for key in [k for k in self.order if k[0] == inum]:
            self._drop(key)

    def drop_clean(self):
        clean = [k for k in self.order if k not in self.dirty]
        for key in clean:
            self._drop(key)
        return len(clean)

    def dirty_order(self):
        return [k for k in self.order if k in self.dirty]


def evictions() -> float:
    return obs.metrics().get("buffercache_evictions_total")


def assert_same(bc: BufferCache, ref: NaiveLRU, cached_before, step) -> None:
    where = f"after step {step}"
    assert bc.lru_order() == ref.order, where
    assert [b.key for b in bc.dirty_buffers()] == ref.dirty_order(), where
    assert len(bc.lru_order()) == len(ref.data), where
    assert bc.dirty_count() == len(ref.dirty), where
    assert (bc.hits, bc.misses) == (ref.hits, ref.misses), where
    assert evictions() == len(ref.victims), where
    assert obs.metrics().get("buffercache_hits_total") == ref.hits, where
    assert obs.metrics().get("buffercache_misses_total") == ref.misses, where
    # The victims of this step, as a set (their order is pinned by
    # lru_order() having matched before the step).
    gone = cached_before - set(bc.lru_order())
    assert gone == cached_before - set(ref.data), where
    for key in ref.data:
        assert bc.peek(key) == ref.data[key], where
        assert bc.is_dirty(key) == (key in ref.dirty), where


def random_step(rng: random.Random, bc: BufferCache, ref: NaiveLRU,
                dirty_share: float) -> str:
    key = (rng.randint(1, 3), rng.randint(0, 7))
    roll = rng.random()
    if roll < 0.24:
        assert bc.get(key) == ref.get(key)
        return f"get{key}"
    if roll < 0.30:
        # A replayed directory walk: a few keys (repeats allowed), mostly
        # cached ones so that both the all-or-nothing answers come up.
        cached = sorted(ref.data)
        keys = [rng.choice(cached) if cached and rng.random() < 0.85
                else (rng.randint(1, 3), rng.randint(0, 7))
                for _ in range(rng.randint(0, 4))]
        replayed = ref.hit_all(keys)
        assert bc.hit_all(keys) == replayed
        return f"hit_all{keys} -> {replayed}"
    if roll < 0.36:
        inum, lbn = key
        end = lbn + rng.randint(0, 5)
        absent = next((i for i in range(end - lbn)
                       if (inum, lbn + i) in ref.data), end - lbn)
        assert bc.absent_run(inum, lbn, end - lbn) == absent
        assert bc.get_run(inum, lbn, end) == ref.get_run(inum, lbn, end)
        return f"get_run{key}..{end}"
    if roll < 0.46:
        # A device read's cluster, or a write's span of blocks.  A write
        # into new blocks first walks to their pointer blocks (touch):
        # cached keys mostly, so that they are held across the run.
        inum, lbn = key
        dirty = rng.random() < dirty_share
        blocks = [block(rng.randrange(256)) for _ in range(rng.randint(1, 6))]
        touch = []
        if dirty and (inum, lbn) not in ref.data and rng.random() < 0.7:
            run = {(inum, lbn + i) for i in range(len(blocks))}
            others = sorted(set(ref.data) - run)
            touch = [rng.choice(others) if others and rng.random() < 0.8
                     else (inum, -1 - i) for i in range(rng.randint(1, 2))]
            touch = list(dict.fromkeys(touch))
            for k in touch:  # the walk that precedes the run
                assert bc.get(k) == ref.get(k)
        done = ref.put_run(inum, lbn, blocks, dirty, touch)
        assert bc.put_run(inum, lbn, blocks, dirty, touch) == done
        return f"put_run{key}x{len(blocks)} dirty={dirty} touch={touch}"
    if roll < 0.70:
        data, dirty = block(rng.randrange(256)), rng.random() < dirty_share
        bc.put(key, data, dirty)
        ref.put(key, data, dirty)
        return f"put{key} dirty={dirty}"
    if roll < 0.80:
        bc.mark_clean(key)
        ref.mark_clean(key)
        return f"mark_clean{key}"
    if roll < 0.88:
        # The segment writer's shape: the whole dirty set, in
        # dirty_buffers() order, in one batch.
        for buf in bc.dirty_buffers():
            bc.mark_clean(buf.key)
            ref.mark_clean(buf.key)
        return "flush"
    if roll < 0.94:
        bc.invalidate(key)
        ref.invalidate(key)
        return f"invalidate{key}"
    if roll < 0.97:
        bc.invalidate_inode(key[0])
        ref.invalidate_inode(key[0])
        return f"invalidate_inode({key[0]})"
    assert bc.drop_clean() == ref.drop_clean()
    return "drop_clean"


@pytest.mark.parametrize("dirty_share", [0.2, 0.6, 0.95])
@pytest.mark.parametrize("seed", [1993, 7, 0xB10C])
def test_random_ops_match_naive_lru(seed, dirty_share):
    rng = random.Random(seed)
    bc = BufferCache(capacity_bytes=CAPACITY * BLOCK_SIZE)
    ref = NaiveLRU(CAPACITY)
    over_capacity = 0
    replays = set()
    for step in range(3000):
        before = set(bc.lru_order())
        what = random_step(rng, bc, ref, dirty_share)
        assert_same(bc, ref, before, f"{step} ({what})")
        over_capacity += len(bc.lru_order()) > CAPACITY
        if what.startswith("hit_all"):
            replays.add(what.split(" -> ")[1])
    assert ref.victims, "the walk never evicted"
    assert replays == {"True", "False"}, "hit_all never declined (or replayed)"
    if dirty_share > 0.9:
        assert over_capacity, "the walk never met an all-dirty cache"


def test_all_dirty_means_no_victim():
    bc = BufferCache(capacity_bytes=CAPACITY * BLOCK_SIZE)
    for i in range(CAPACITY + 3):
        bc.put((1, i), block(i), dirty=True)
    assert len(bc.lru_order()) == CAPACITY + 3  # grew: nothing was evictable
    assert evictions() == 0
    assert [b.key for b in bc.dirty_buffers()] == \
        [(1, i) for i in range(CAPACITY + 3)]
    # One flush later the oldest go first, down to capacity - 1.
    for buf in bc.dirty_buffers():
        bc.mark_clean(buf.key)
    bc.put((2, 0), block(0), dirty=False)
    assert len(bc.lru_order()) == CAPACITY
    assert bc.lru_order() == [(1, i) for i in range(4, CAPACITY + 3)] \
        + [(2, 0)]


def test_old_buffer_marked_clean_goes_before_newer_clean_ones():
    bc = BufferCache(capacity_bytes=CAPACITY * BLOCK_SIZE)
    bc.put((1, 0), block(0), dirty=True)          # oldest, pinned
    for i in range(1, CAPACITY):
        bc.put((1, i), block(i), dirty=False)     # newer, clean
    bc.get((1, 1))                                # ...and (1, 1) newest
    bc.mark_clean((1, 0))     # not a use: still the least recently used
    bc.put((2, 0), block(9), dirty=False)
    assert bc.peek((1, 0)) is None                # the old one went
    bc.put((2, 1), block(9), dirty=False)
    assert bc.peek((1, 2)) is None                # then the next oldest
    assert bc.peek((1, 1)) is not None


def test_bound_series_survive_obs_reset():
    """The cache binds its three counters once; a reset in between must
    neither lose later records nor resurrect earlier ones."""
    bc = BufferCache(capacity_bytes=CAPACITY * BLOCK_SIZE)
    bc.put((1, 0), block(0), dirty=False)
    bc.get((1, 0))
    bc.get((9, 9))
    obs.reset()
    assert "buffercache_hits_total" not in obs.metrics().snapshot()["counters"]
    bc.get((1, 0))
    snap = obs.metrics().snapshot()["counters"]
    assert snap["buffercache_hits_total"] == 1.0
    assert "buffercache_misses_total" not in snap


def test_a_clean_run_evicts_its_own_first_blocks():
    """Seven pinned blocks and one clean one, then a 12-block device
    read: every put finds the cache full, so each evicts the oldest
    clean block — at last the run's own — and only its newest stays."""
    bc = BufferCache(capacity_bytes=CAPACITY * BLOCK_SIZE)
    ref = NaiveLRU(CAPACITY)
    for cache in (bc, ref):
        for i in range(CAPACITY - 1):
            cache.put((1, i), block(i), dirty=True)
        cache.put((2, 0), block(9), dirty=False)
    blocks = [block(i) for i in range(12)]
    before = set(bc.lru_order())
    assert bc.put_run(3, 0, blocks, dirty=False) == \
        ref.put_run(3, 0, blocks, dirty=False) == 12
    assert_same(bc, ref, before, "run")
    assert ref.victims == [(2, 0)] + [(3, i) for i in range(11)]


def test_a_touched_run_stops_once_its_pointer_block_is_evicted():
    """A write's new blocks each touch their pointer block before their
    put; the second put evicts it (nothing else clean is left), so the
    run stops there and the next block's bmap must read it again."""
    bc = BufferCache(capacity_bytes=CAPACITY * BLOCK_SIZE)
    ref = NaiveLRU(CAPACITY)
    pointer = (3, -1)
    for cache in (bc, ref):
        for i in range(CAPACITY - 2):
            cache.put((1, i), block(i), dirty=True)
        cache.put((2, 0), block(9), dirty=False)
        cache.put(pointer, block(7), dirty=False)
        cache.get(pointer)  # the walk to the first block
    blocks = [block(i) for i in range(4)]
    before = set(bc.lru_order())
    assert bc.put_run(3, 0, blocks, True, [pointer]) == \
        ref.put_run(3, 0, blocks, True, [pointer]) == 2
    assert_same(bc, ref, before, "run")
    assert ref.victims == [(2, 0), pointer]
