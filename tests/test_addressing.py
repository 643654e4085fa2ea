"""Unit tests: the unified block address space and block-map driver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import profiles
from repro.blockdev.datapath import ExtentRef
from repro.core.addressing import (AddressSpace, BlockMapDriver,
                                   TOTAL_SEGS_32BIT, line_writev)
from repro.errors import AddressError, InvalidArgument
from repro.lfs.constants import BLOCK_SIZE, BLOCKS_PER_SEG, RESERVED_BLOCKS
from repro.sim.actor import Actor
from repro.util.units import MB


def aspace(disk=100, volumes=(50, 30, 20)):
    return AddressSpace(disk, list(volumes))


class TestAddressSpace:
    def test_disk_at_bottom_with_boot_shift(self):
        a = aspace()
        assert a.seg_base(0) == RESERVED_BLOCKS
        assert a.segno_of(RESERVED_BLOCKS) == 0
        assert a.segno_of(RESERVED_BLOCKS + BLOCKS_PER_SEG) == 1

    def test_boot_area_rejected(self):
        with pytest.raises(AddressError):
            aspace().segno_of(3)

    def test_volume0_ends_at_top(self):
        a = aspace()
        top_seg = a.tertiary_segno(0, 49)
        assert top_seg == a.total_segs - 2  # top segment itself unusable

    def test_volumes_descend(self):
        a = aspace()
        assert a.tertiary_segno(1, 0) < a.tertiary_segno(0, 0)
        assert a.tertiary_segno(2, 0) < a.tertiary_segno(1, 0)

    def test_addresses_increase_within_volume(self):
        a = aspace()
        assert a.seg_base(a.tertiary_segno(1, 1)) > \
            a.seg_base(a.tertiary_segno(1, 0))

    def test_volume_of_roundtrip(self):
        a = aspace()
        for vol in range(3):
            for seg in (0, 5, 19):
                segno = a.tertiary_segno(vol, seg)
                assert a.volume_of(segno) == (vol, seg)

    def test_dead_zone(self):
        a = aspace()
        lo, hi = a.dead_zone
        assert lo == 100
        mid = (lo + hi) // 2
        assert a.is_dead_segno(mid)
        with pytest.raises(AddressError):
            a.check(mid * BLOCKS_PER_SEG)

    def test_classification_disjoint(self):
        a = aspace()
        lo, hi = a.dead_zone
        for segno in (0, 99, (lo + hi) // 2, a.tertiary_segno(2, 0),
                      a.tertiary_segno(0, 49)):
            kinds = [a.is_disk_segno(segno), a.is_dead_segno(segno),
                     a.is_tertiary_segno(segno)]
            assert sum(kinds) == 1

    def test_collision_rejected(self):
        with pytest.raises(InvalidArgument):
            AddressSpace(10, [TOTAL_SEGS_32BIT])

    def test_add_volume_claims_dead_zone(self):
        a = aspace()
        before_lo, before_hi = a.dead_zone
        idx = a.add_volume(40)
        assert idx == 3
        assert a.dead_zone[1] == before_hi - 40
        assert a.volume_of(a.tertiary_segno(3, 0)) == (3, 0)

    def test_grow_disk(self):
        a = aspace()
        a.grow_disk(20)
        assert a.is_disk_segno(110)
        assert a.dead_zone[0] == 120

    def test_grow_disk_too_far(self):
        a = AddressSpace(10, [5], total_segs=40)
        with pytest.raises(AddressError):
            a.grow_disk(1000)

    def test_invalid_volume_lookup(self):
        a = aspace()
        with pytest.raises(AddressError):
            a.tertiary_segno(9, 0)
        with pytest.raises(AddressError):
            a.tertiary_segno(0, 50)
        with pytest.raises(AddressError):
            a.volume_of(5)  # a disk segment

    @given(st.integers(0, 2), st.integers(0, 19))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, vol, seg):
        a = aspace(volumes=(20, 20, 20))
        segno = a.tertiary_segno(vol, seg)
        assert a.volume_of(segno) == (vol, seg)
        daddr = a.seg_base(segno)
        assert a.segno_of(daddr) == segno
        assert a.is_tertiary_segno(segno)


class _RecordingDisk:
    """Stand-in device: records writes that pass the address-space guard."""

    def __init__(self):
        self.calls = []

    def writev(self, actor, daddr, parts):
        self.calls.append(("writev", daddr, sum(map(len, parts))))


class TestLineRangeCheck:
    def test_unaligned_write_length_counts_ceiling_blocks(self):
        # An unaligned total must round *up* when checking the disk
        # range: one extra byte past the last disk block leaves the
        # disk region and must be rejected before touching the device.
        a = aspace()
        disk = _RecordingDisk()
        actor = Actor("a")
        last = RESERVED_BLOCKS + 100 * BLOCKS_PER_SEG - 1
        line_writev(disk, actor, last, [b"\xaa" * BLOCK_SIZE], a)
        with pytest.raises(AddressError):
            line_writev(disk, actor, last, [b"\xaa" * (BLOCK_SIZE + 1)], a)
        assert disk.calls == [("writev", last, BLOCK_SIZE)]

    def test_unaligned_refs_length_counts_ceiling_blocks(self):
        a = aspace()
        disk = _RecordingDisk()
        actor = Actor("a")
        last = RESERVED_BLOCKS + 100 * BLOCKS_PER_SEG - 1
        buf = b"\xbb" * (BLOCK_SIZE + 1)
        line_writev(disk, actor, last, [ExtentRef(buf, 0, BLOCK_SIZE)], a)
        with pytest.raises(AddressError):
            line_writev(disk, actor, last,
                        [ExtentRef(buf, 0, BLOCK_SIZE + 1)], a)
        assert disk.calls == [("writev", last, BLOCK_SIZE)]


class TestBlockMapDriver:
    def _driver(self):
        disk = profiles.make_disk(profiles.RZ57, capacity_bytes=32 * MB)
        disk_segs = disk.capacity_blocks // BLOCKS_PER_SEG
        a = AddressSpace(disk_segs, [10, 10])
        driver = BlockMapDriver(a, disk, lookup_overhead=0.0)
        return driver, disk, a

    def test_disk_io_routes_through(self):
        driver, disk, _ = self._driver()
        actor = Actor("a")
        driver.write(actor, RESERVED_BLOCKS + 5, b"\xaa" * 4096)
        assert driver.read(actor, RESERVED_BLOCKS + 5, 1) == b"\xaa" * 4096
        assert disk.store.is_written(RESERVED_BLOCKS + 5)

    def test_boot_area_direct(self):
        driver, disk, _ = self._driver()
        actor = Actor("a")
        driver.write(actor, 0, b"\x55" * 4096)
        assert disk.store.is_written(0)

    def test_dead_zone_read_errors(self):
        driver, _, a = self._driver()
        lo, hi = a.dead_zone
        with pytest.raises(AddressError):
            driver.read(Actor("a"), ((lo + hi) // 2) * BLOCKS_PER_SEG, 1)

    def test_tertiary_without_service_errors(self):
        driver, _, a = self._driver()
        driver.cache = type("C", (), {"lookup": lambda self, t: None})()
        tseg = a.tertiary_segno(0, 0)
        with pytest.raises(AddressError):
            driver.read(Actor("a"), a.seg_base(tseg), 1)

    def test_split_by_segment(self):
        driver, _, a = self._driver()
        tseg = a.tertiary_segno(1, 0)
        base = a.seg_base(tseg)
        runs = list(driver._split_by_segment(base + 250, 12))
        assert [(r[0], r[1], r[2]) for r in runs] == [
            (tseg, 250, 6), (tseg + 1, 0, 6)]

    def test_lookup_overhead_charged(self):
        disk = profiles.make_disk(profiles.RZ57, capacity_bytes=32 * MB)
        a = AddressSpace(disk.capacity_blocks // BLOCKS_PER_SEG, [4])
        driver = BlockMapDriver(a, disk, lookup_overhead=0.01)
        actor = Actor("a")
        t0 = actor.time
        driver.read(actor, RESERVED_BLOCKS, 1)
        # at least the overhead plus some device time
        assert actor.time - t0 > 0.01
