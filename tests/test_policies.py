"""Unit tests: migration policies (STP, access-time, namespace,
block-range) and the access-range tracker."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import (AccessRangeTracker, AccessTimePolicy,
                                 BlockRangePolicy, NamespacePolicy,
                                 STPPolicy, collect_file_facts)
from repro.core.policies.base import FileFacts, MigrationUnit
from repro.util.units import KB, MB


def facts(path="/f", size=1000, atime=0.0, mtime=0.0, inum=10,
          is_dir=False, resident=True):
    return FileFacts(inum=inum, path=path, size=size, atime=atime,
                     mtime=mtime, is_dir=is_dir, disk_resident=resident)


class TestSTPScore:
    def test_score_formula(self):
        pol = STPPolicy(target_bytes=MB)
        f = facts(size=100, atime=10.0)
        assert pol.score(now=30.0, facts=f) == pytest.approx(20.0 * 100)

    def test_exponents(self):
        pol = STPPolicy(target_bytes=MB, age_exp=2.0, size_exp=0.5)
        f = facts(size=100, atime=0.0)
        assert pol.score(now=4.0, facts=f) == pytest.approx(16 * 10)

    def test_future_atime_clamped(self):
        pol = STPPolicy(target_bytes=MB)
        f = facts(atime=100.0)
        assert pol.score(now=50.0, facts=f) == 0.0

    def test_eligibility_rules(self):
        pol = STPPolicy(target_bytes=MB, min_age=10.0, min_size=50,
                        stable_window=5.0)
        now = 100.0
        assert pol.eligible(now, facts(size=100, atime=0, mtime=0))
        assert not pol.eligible(now, facts(is_dir=True))
        assert not pol.eligible(now, facts(resident=False))
        assert not pol.eligible(now, facts(size=10))
        assert not pol.eligible(now, facts(atime=95.0))       # too young
        assert not pol.eligible(now, facts(mtime=98.0))       # unstable

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            STPPolicy(target_bytes=0)

    @given(st.floats(0, 1e6), st.floats(0, 1e6), st.integers(1, 1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_age_and_size(self, age1, age2, size):
        pol = STPPolicy(target_bytes=MB)
        lo, hi = sorted((age1, age2))
        now = 1e6
        assert pol.score(now, facts(size=size, atime=now - lo)) <= \
            pol.score(now, facts(size=size, atime=now - hi))


class TestPolicySelection:
    def _populate(self, hl):
        fs, app = hl.fs, hl.app
        fs.mkdir("/proj")
        fs.write_path("/proj/old_big", os.urandom(400 * KB))
        app.sleep(1000)
        fs.write_path("/proj/new_small", os.urandom(10 * KB))
        fs.checkpoint()
        app.sleep(100)
        return fs

    def test_stp_ranks_old_big_first(self, hl):
        fs = self._populate(hl)
        units = STPPolicy(target_bytes=1).select(fs, hl.app)
        assert units[0].tag == "/proj/old_big"

    def test_stp_respects_target_bytes(self, hl):
        fs = self._populate(hl)
        units = STPPolicy(target_bytes=100 * MB).select(fs, hl.app)
        assert len(units) == 2  # everything fits under a huge target

    def test_access_time_ranks_oldest(self, hl):
        fs = self._populate(hl)
        units = AccessTimePolicy(target_bytes=1).select(fs, hl.app)
        assert units[0].tag == "/proj/old_big"

    def test_special_files_never_selected(self, hl):
        fs = self._populate(hl)
        units = STPPolicy(target_bytes=100 * MB).select(fs, hl.app)
        paths = [u.tag for u in units]
        assert "/.tsegfile" not in paths

    def test_collect_skips_pinned(self, hl):
        fs = self._populate(hl)
        for f in collect_file_facts(fs, hl.app):
            assert f.inum not in fs.pinned_inums

    def test_migrated_files_not_reselected(self, hl):
        fs = self._populate(hl)
        hl.migrator.migrate_file("/proj/old_big")
        hl.migrator.flush()
        units = STPPolicy(target_bytes=100 * MB).select(fs, hl.app)
        assert "/proj/old_big" not in [u.tag for u in units]


class TestNamespacePolicy:
    def _tree(self, hl):
        fs, app = hl.fs, hl.app
        fs.mkdir("/src")
        for unit, age in (("alpha", 2000), ("beta", 10)):
            fs.mkdir(f"/src/{unit}")
            for i in range(3):
                fs.write_path(f"/src/{unit}/f{i}", os.urandom(30 * KB))
        fs.checkpoint()
        app.sleep(5)
        # beta was touched recently: read it now.
        for i in range(3):
            fs.read_path("/src/beta/f0", 0, 100)
        app.sleep(500)
        return fs

    def test_units_group_subtrees(self, hl):
        fs = self._tree(hl)
        pol = NamespacePolicy(target_bytes=100 * MB, unit_depth=2,
                              root="/src")
        units = pol.select(fs, hl.app)
        tags = {u.tag for u in units}
        assert tags == {"/src/alpha", "/src/beta"}

    def test_cold_unit_ranked_first(self, hl):
        fs = self._tree(hl)
        pol = NamespacePolicy(target_bytes=1, unit_depth=2, root="/src")
        units = pol.select(fs, hl.app)
        assert units[0].tag == "/src/alpha"

    def test_unit_members_sorted_by_name(self, hl):
        fs = self._tree(hl)
        pol = NamespacePolicy(target_bytes=100 * MB, unit_depth=2,
                              root="/src")
        unit = [u for u in pol.select(fs, hl.app)
                if u.tag == "/src/alpha"][0]
        paths = []
        for inum in unit.inums:
            ino = fs.get_inode(inum)
            paths.append(inum)
        assert len(unit.inums) == 3

    def test_secondary_criterion_ignores_hot_dormant_file(self):
        pol = NamespacePolicy(target_bytes=MB, ignore_hot_unmodified=50.0)
        now = 1000.0
        members = [
            facts(path="/u/cold1", atime=0.0, mtime=0.0),
            facts(path="/u/popular", atime=990.0, mtime=0.0),  # read-hot
        ]
        # Without the criterion the unit age would be ~10; with it the
        # popular-but-unmodified file is ignored -> age 1000.
        assert pol._unit_age(now, members) == pytest.approx(1000.0)

    def test_secondary_criterion_respects_recent_modification(self):
        pol = NamespacePolicy(target_bytes=MB, ignore_hot_unmodified=50.0)
        now = 1000.0
        members = [
            facts(path="/u/cold1", atime=0.0, mtime=0.0),
            facts(path="/u/editing", atime=990.0, mtime=980.0),
        ]
        assert pol._unit_age(now, members) == pytest.approx(10.0)

    def test_skip_unstable_units(self):
        pol = NamespacePolicy(target_bytes=MB, skip_unstable=100.0)
        # Simulated select over fabricated facts via unit ranking path:
        # a unit with a recently-modified member is skipped entirely.
        now = 1000.0
        stable = [facts(path="/a/f", atime=0, mtime=0, inum=1)]
        unstable = [facts(path="/b/f", atime=0, mtime=950.0, inum=2)]
        # exercise through internal scoring by monkey-grouping
        assert any(now - f.mtime < pol.skip_unstable for f in unstable)
        assert not any(now - f.mtime < pol.skip_unstable for f in stable)


class TestAccessRangeTracker:
    def test_sequential_reads_collapse(self):
        tr = AccessRangeTracker()
        tr.record(1, 0, 4, when=1.0)
        tr.record(1, 4, 8, when=1.0)
        ranges = tr.ranges(1)
        assert len(ranges) == 1
        assert (ranges[0].start, ranges[0].end) == (0, 8)

    def test_retouch_splits(self):
        tr = AccessRangeTracker()
        tr.record(1, 0, 10, when=1.0)
        tr.record(1, 4, 6, when=5.0)
        ranges = tr.ranges(1)
        assert [(r.start, r.end, r.last_access) for r in ranges] == [
            (0, 4, 1.0), (4, 6, 5.0), (6, 10, 1.0)]

    def test_budget_coalesces_closest_timestamps(self):
        tr = AccessRangeTracker(max_records_per_file=2)
        tr.record(1, 0, 1, when=1.0)
        tr.record(1, 5, 6, when=1.1)
        tr.record(1, 10, 11, when=99.0)
        ranges = tr.ranges(1)
        assert len(ranges) == 2
        # The two close-in-time records merged, the outlier survived.
        assert any(r.last_access == 99.0 and len(r) == 1 for r in ranges)

    def test_empty_access_ignored(self):
        tr = AccessRangeTracker()
        tr.record(1, 5, 5, when=1.0)
        assert tr.ranges(1) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            AccessRangeTracker(max_records_per_file=0)

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 20),
                              st.floats(0, 100, allow_nan=False)),
                    min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_ranges_always_sorted_and_disjoint(self, accesses):
        tr = AccessRangeTracker(max_records_per_file=8)
        for start, length, when in accesses:
            tr.record(7, start, start + length, when)
        ranges = tr.ranges(7)
        assert len(ranges) <= 8
        for a, b in zip(ranges, ranges[1:]):
            assert a.end <= b.start


class TestBlockRangePolicy:
    def test_selects_cold_ranges_only(self):
        tr = AccessRangeTracker()
        tr.record(5, 0, 100, when=0.0)     # cold range
        tr.record(5, 100, 110, when=990.0)  # hot range

        class FakeActor:
            time = 1000.0
        pol = BlockRangePolicy(tr, target_bytes=100 * MB, min_age=100.0)
        units = pol.select(fs=None, actor=FakeActor())
        assert len(units) == 1
        assert units[0].lbn_ranges[5] == (0, 100)

    def test_coldest_first(self):
        tr = AccessRangeTracker()
        tr.record(5, 0, 10, when=500.0)
        tr.record(6, 0, 10, when=0.0)

        class FakeActor:
            time = 1000.0
        pol = BlockRangePolicy(tr, target_bytes=100 * MB, min_age=1.0)
        units = pol.select(fs=None, actor=FakeActor())
        assert units[0].inums == [6]

    def test_migration_unit_validation(self):
        with pytest.raises(ValueError):
            MigrationUnit(inums=[])
