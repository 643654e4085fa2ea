"""The runtime borrow sanitizer traps use-after-release on extent refs."""

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import (BorrowSanitizer, BorrowViolation,
                                     GuardedRef)
from repro.blockdev.datapath import (ExtentRef, materialize_refs,
                                     run_views, sanitizer, set_sanitizer)
from repro.blockdev.extent import ExtentStore

BS = 512


def make_store(blocks=64):
    st = ExtentStore(blocks, BS)
    st.write(0, b"\xaa" * BS * 8)
    return st


class TestTrap:
    def test_seeded_use_after_release_is_trapped(self, armed):
        """The canonical seeded bug: hold a borrow across an overwrite
        of the range, then read through it."""
        st = make_store()
        stale = st.read_refs(0, 4)          # the seeded retained borrow
        assert all(isinstance(r, GuardedRef) for r in stale)
        st.write(2, b"\xbb" * BS)           # store recycles the range
        with pytest.raises(BorrowViolation) as exc:
            bytes(stale[0].view())
        assert "released borrow" in str(exc.value)
        assert armed.poisons >= 1

    def test_live_borrow_reads_fine(self, armed):
        st = make_store()
        refs = st.read_refs(0, 4)
        assert b"".join(bytes(r.view()) for r in refs) == b"\xaa" * BS * 4

    def test_metadata_survives_poisoning(self, armed):
        # ioserver sizes ref lists after handing them over; .nbytes and
        # len() must keep working on a dead borrow.
        st = make_store()
        refs = st.read_refs(0, 2)
        st.discard(0, 2)
        assert sum(r.nbytes for r in refs) == 2 * BS
        assert sum(len(r) for r in refs) == 2 * BS
        with pytest.raises(BorrowViolation):
            refs[0].view()

    def test_whole_image_fast_paths_trap_too(self, armed):
        # A one-block ref over a whole ``bytes`` image is handed on as-is
        # by materialize_refs and run_views, without a view().
        st = ExtentStore(64, BS)
        st.write(0, b"\x5a" * BS)
        stale = st.read_refs(0, 1)
        assert materialize_refs(stale) == b"\x5a" * BS
        st.write(0, b"\xa5" * BS)
        with pytest.raises(BorrowViolation):
            materialize_refs(stale)
        with pytest.raises(BorrowViolation):
            run_views(stale, BS)
        assert "poisoned" in repr(stale[0])

    def test_discard_releases(self, armed):
        st = make_store()
        refs = st.read_refs(4, 2)
        st.discard(4, 1)
        with pytest.raises(BorrowViolation):
            refs[0].view()

    def test_restore_releases_everything(self, armed):
        st = make_store()
        image = st.snapshot()
        refs = st.read_refs(0, 8)
        st.restore(image)
        with pytest.raises(BorrowViolation):
            refs[0].view()

    def test_adoption_moves_ownership(self, armed):
        src = make_store()
        dst = ExtentStore(64, BS)
        lent = src.read_refs(0, 4)
        dst.write_refs(0, lent)
        with pytest.raises(BorrowViolation) as exc:
            lent[0].view()
        assert "moved" in str(exc.value)
        # The adoptee serves the bytes through fresh borrows.
        assert dst.read(0, 4) == b"\xaa" * BS * 4

    def test_non_overlapping_write_leaves_borrow_alive(self, armed):
        st = make_store()
        refs = st.read_refs(0, 2)
        st.write(6, b"\xcc" * BS)           # disjoint range
        assert bytes(refs[0].view()) == b"\xaa" * BS * 2

    def test_multi_extent_read_does_not_poison(self, armed):
        # read() of a fragmented range joins a copy and leaves the rows
        # alone, so outstanding borrows stay valid.
        st = ExtentStore(64, BS)
        st.write(0, b"x" * BS)
        st.write(1, b"y" * BS * 2)
        live = st.read_refs(0, 3)
        assert len(st.read(0, 3)) == 3 * BS  # multi-extent join
        assert bytes(live[0].view()) == b"x" * BS


class TestLedger:
    def test_dead_borrows_are_pruned(self, armed):
        st = make_store()
        for _ in range(5):
            st.read_refs(0, 4)              # dropped immediately
        refs = st.read_refs(0, 4)
        before = armed.poisons
        st.write(0, b"\xdd" * BS * 4)   # only the live borrows poison
        assert armed.poisons - before == len(refs)

    def test_stats_count_borrows_and_poisons(self, armed):
        st = make_store()
        refs = st.read_refs(0, 4)
        before = armed.poisons
        st.write(0, b"\xdd" * BS * 4)
        assert armed.borrows >= len(refs)
        assert armed.poisons > before


class TestInstallation:
    def test_every_test_runs_armed(self):
        # tests/conftest.py arms the sanitizer for every tier-1 test; this
        # one asks for no fixture.
        assert isinstance(sanitizer(), BorrowSanitizer)
        st = make_store()
        assert all(isinstance(r, GuardedRef) for r in st.read_refs(0, 2))

    def test_uninstalled_store_lends_plain_refs(self):
        # Drop to the uninstalled state for this test's duration, then
        # restore the session sanitizer.
        session = sanitize.uninstall()
        try:
            assert sanitizer() is None
            st = make_store()
            refs = st.read_refs(0, 2)
            assert all(type(r) is ExtentRef for r in refs)
            st.write(0, b"\xee" * BS)
            refs[0].view()                  # no guard, no trap
        finally:
            set_sanitizer(session)

    def test_install_returns_previous_on_uninstall(self):
        session = sanitize.uninstall()
        try:
            san = sanitize.install()
            assert sanitize.current() is san
            assert sanitize.uninstall() is san
            assert sanitize.uninstall() is None
        finally:
            set_sanitizer(session)


class TestStackedStores:
    def test_device_level_use_after_release(self, armed):
        """The end-to-end shape of an escaped borrow: cache a device
        read's refs, let the cleaner rewrite the segment, then touch
        the cached refs."""
        from repro.blockdev import profiles
        from repro.sim.actor import Actor
        from repro.util.units import MB

        actor = Actor("app")
        disk = profiles.make_disk(profiles.RZ57, capacity_bytes=8 * MB)
        dbs = disk.block_size
        disk.write(actor, 0, b"\x11" * dbs * 4)
        cached = disk.read_refs(actor, 0, 4)       # illegally retained
        disk.write(actor, 1, b"\x22" * dbs)        # "cleaner" rewrites
        with pytest.raises(BorrowViolation):
            b"".join(bytes(r.view()) for r in cached)
