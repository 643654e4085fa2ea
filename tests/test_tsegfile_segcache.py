"""Unit tests: tsegfile bookkeeping, segment cache, ejection policies."""

import pytest

from repro.core.policies.ejection import (LeastWorthyEjection, LRUEjection,
                                          RandomEjection)
from repro.core.tsegfile import TSegFile, VolumeMeta
from repro.errors import InvalidArgument, TertiaryExhausted
from repro.lfs.constants import UNASSIGNED
from repro.lfs.ifile import SEG_CACHED


def tsegfile(counts=(4, 4)):
    return TSegFile([VolumeMeta(volume_id=i, nsegs=n)
                     for i, n in enumerate(counts)])


class TestTSegFile:
    def test_alloc_consumes_one_volume_at_a_time(self):
        t = tsegfile()
        allocations = [t.alloc_segment() for _ in range(6)]
        assert allocations[:4] == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert allocations[4:] == [(1, 0), (1, 1)]

    def test_alloc_marks_dirty(self):
        t = tsegfile()
        vol, seg = t.alloc_segment()
        assert t.seguse(vol, seg).is_dirty()

    def test_exhaustion(self):
        t = tsegfile(counts=(1,))
        t.alloc_segment()
        with pytest.raises(TertiaryExhausted):
            t.alloc_segment()

    def test_mark_full_skips_volume(self):
        t = tsegfile()
        t.alloc_segment()
        t.mark_volume_full(0)
        assert t.alloc_segment() == (1, 0)

    def test_release_and_reset_volume(self):
        t = tsegfile(counts=(2, 2))
        for _ in range(2):
            t.alloc_segment()
        t.release_segment(0, 0)
        t.release_segment(0, 1)
        t.reset_volume(0)
        assert t.alloc_segment() == (0, 0)

    def test_reset_volume_refuses_live_data(self):
        t = tsegfile()
        vol, seg = t.alloc_segment()
        t.seguse(vol, seg).live_bytes = 100
        with pytest.raises(InvalidArgument):
            t.reset_volume(vol)

    def test_serialize_roundtrip(self):
        t = tsegfile(counts=(3, 2))
        t.alloc_segment()
        t.alloc_segment()
        t.seguse(0, 1).live_bytes = 777
        t.mark_volume_full(0)
        out = TSegFile.deserialize(t.serialize())
        assert out.volumes[0].marked_full
        assert out.volumes[0].next_free == 2
        assert out.seguse(0, 1).live_bytes == 777
        assert out.alloc_segment() == (1, 0)

    def test_bounds(self):
        t = tsegfile()
        with pytest.raises(InvalidArgument):
            t.seguse(5, 0)
        with pytest.raises(InvalidArgument):
            t.seguse(0, 99)

    def test_live_bytes_sum(self):
        t = tsegfile()
        t.seguse(0, 0).live_bytes = 10
        t.seguse(0, 2).live_bytes = 5
        assert t.live_bytes(0) == 15
        assert t.live_bytes(1) == 0


class TestSegmentCacheWithFS(object):
    def test_register_lookup_eject(self, hl):
        fs, app = hl.fs, hl.app
        line = fs.cache.acquire_line(app)
        fs.cache.register(9999999, line, app)
        assert fs.cache.lookup(9999999) == line
        seg = fs.ifile.seguse(line)
        assert seg.flags & SEG_CACHED
        assert seg.cache_tag == 9999999
        freed = fs.cache.eject(9999999)
        assert freed == line
        assert fs.ifile.seguse(line).is_clean()
        assert fs.ifile.seguse(line).cache_tag == UNASSIGNED

    def test_staging_line_refuses_eject(self, hl):
        fs, app = hl.fs, hl.app
        line = fs.cache.acquire_line(app)
        fs.cache.register(8888888, line, app, staging=True)
        assert fs.cache.eject(8888888) is None
        fs.cache.seal_staging(8888888)
        assert fs.cache.eject(8888888) == line

    def test_discard_staging_forces(self, hl):
        fs, app = hl.fs, hl.app
        line = fs.cache.acquire_line(app)
        fs.cache.register(777777, line, app, staging=True)
        assert fs.cache.discard_staging(777777) == line

    def test_acquire_respects_limit_and_evicts(self, hl):
        fs, app = hl.fs, hl.app
        limit = fs.cache.max_lines
        lines = []
        for i in range(limit):
            line = fs.cache.acquire_line(app)
            fs.cache.register(1_000_000 + i, line, app)
            lines.append(line)
        # The next acquire must evict (LRU) rather than grow.
        extra = fs.cache.acquire_line(app)
        assert extra in lines
        assert len(fs.cache) == limit - 1

    def test_hit_miss_counters(self, hl):
        fs, app = hl.fs, hl.app
        fs.cache.lookup(123)
        assert fs.cache.misses == 1
        line = fs.cache.acquire_line(app)
        fs.cache.register(123, line, app)
        fs.cache.lookup(123)
        assert fs.cache.hits == 1

    def test_rebuild_from_ifile(self, hl):
        fs, app = hl.fs, hl.app
        line = fs.cache.acquire_line(app)
        fs.cache.register(555555, line, app)
        fs.cache._dir.clear()
        fs.cache.rebuild_from_ifile()
        assert fs.cache.lookup(555555) == line

    def test_surrender_line(self, hl):
        fs, app = hl.fs, hl.app
        assert fs.cache.surrender_line() is None  # empty cache
        line = fs.cache.acquire_line(app)
        fs.cache.register(44444, line, app)
        assert fs.cache.surrender_line() == line


class TestEjectionPolicies:
    def test_lru_order(self):
        p = LRUEjection()
        for t in (1, 2, 3):
            p.on_insert(t, fresh_fetch=True)
        p.on_access(1)
        assert p.choose_victim([1, 2, 3]) == 2

    def test_lru_restricted_candidates(self):
        p = LRUEjection()
        for t in (1, 2, 3):
            p.on_insert(t, fresh_fetch=True)
        assert p.choose_victim([3]) == 3

    def test_lru_empty(self):
        assert LRUEjection().choose_victim([]) is None

    def test_random_deterministic_with_seed(self):
        a = RandomEjection(seed=7)
        b = RandomEjection(seed=7)
        cands = list(range(10))
        assert [a.choose_victim(cands) for _ in range(5)] == \
            [b.choose_victim(cands) for _ in range(5)]

    def test_least_worthy_prefers_fresh_fetch(self):
        p = LeastWorthyEjection()
        p.on_insert(1, fresh_fetch=True)
        p.on_insert(2, fresh_fetch=True)
        p.on_access(2)           # the fetch's own read
        p.on_access(2)           # a real re-use: promoted
        p.on_access(1)           # only the fetch's own read
        assert p.choose_victim([1, 2]) == 1

    def test_least_worthy_falls_back_to_lru(self):
        p = LeastWorthyEjection()
        p.on_insert(1, fresh_fetch=False)
        p.on_insert(2, fresh_fetch=False)
        p.on_access(1)
        assert p.choose_victim([1, 2]) == 2

    def test_least_worthy_eviction_cleans_state(self):
        p = LeastWorthyEjection()
        p.on_insert(1, fresh_fetch=True)
        p.on_evict(1)
        assert p.choose_victim([]) is None
