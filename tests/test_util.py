"""Unit tests: units, checksums, bitmap, LRU tracker."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bitmap import Bitmap
from repro.util.checksum import cksum32, cksum_blocks
from repro.util.lru import LRUTracker
from repro.util.units import KB, MB, GB, TB, fmt_rate, fmt_time


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB
        assert TB == 1024 * GB

    def test_fmt_rate(self):
        assert fmt_rate(451 * KB) == "451KB/s"

    def test_fmt_time(self):
        assert fmt_time(3.57) == "3.57 s"
        assert fmt_time(44.23) == "44.2 s"


class TestChecksum:
    def test_deterministic(self):
        assert cksum32(b"highlight") == cksum32(b"highlight")

    def test_differs(self):
        assert cksum32(b"a") != cksum32(b"b")

    def test_range(self):
        assert 0 <= cksum32(b"") <= 0xFFFFFFFF

    def test_blocks_probe_first_word(self):
        a = [b"abcdXXXX", b"efghYYYY"]
        b = [b"abcdZZZZ", b"efghWWWW"]
        assert cksum_blocks(a) == cksum_blocks(b)

    def test_blocks_detect_missing(self):
        assert cksum_blocks([b"abcd"]) != cksum_blocks([b"abcd", b"efgh"])

    @given(st.binary(max_size=64))
    def test_cksum32_is_32bit(self, data):
        assert 0 <= cksum32(data) < (1 << 32)


class TestBitmap:
    def test_set_clear_test(self):
        bm = Bitmap(100)
        assert not bm.test(42)
        bm.set(42)
        assert bm.test(42)
        bm.clear(42)
        assert not bm.test(42)

    def test_bounds(self):
        bm = Bitmap(8)
        with pytest.raises(IndexError):
            bm.test(8)
        with pytest.raises(IndexError):
            bm.set(-1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(-1)

    @given(st.sets(st.integers(min_value=0, max_value=199)))
    def test_count_matches_model(self, bits):
        bm = Bitmap(200)
        for b in bits:
            bm.set(b)
        for b in range(200):
            assert bm.test(b) == (b in bits)


class TestLRUTracker:
    def test_touch_orders(self):
        lru = LRUTracker()
        for k in "abc":
            lru.touch(k)
        assert next(iter(lru)) == "a"
        assert list(lru)[-1] == "c"

    def test_touch_promotes(self):
        lru = LRUTracker()
        for k in "abc":
            lru.touch(k)
        lru.touch("a")
        assert next(iter(lru)) == "b"
        assert list(lru)[-1] == "a"

    def test_discard(self):
        lru = LRUTracker()
        lru.touch("x")
        lru.discard("x")
        lru.discard("never-seen")
        assert list(lru) == []

    def test_iteration_order(self):
        lru = LRUTracker()
        for k in (1, 2, 3):
            lru.touch(k)
        lru.touch(1)
        assert list(lru) == [2, 3, 1]

    def test_empty(self):
        lru = LRUTracker()
        assert list(lru) == []
