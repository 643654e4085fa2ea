"""Integration tests: segment writer, log structure, recovery, cleaner."""

import os

import pytest

from repro.blockdev import profiles
from repro.errors import NoSpace
from repro.lfs.cleaner import (Cleaner, CostBenefitPolicy, GreedyPolicy,
                               walk_segment)
from repro.lfs.constants import BLOCK_SIZE, UNASSIGNED
from repro.lfs.filesystem import LFS
from repro.lfs.summary import SegmentSummary
from repro.util.units import MB


class TestSegmentWriter:
    def test_flush_writes_partial_segment(self, lfs, app):
        lfs.write_path("/f", b"x" * BLOCK_SIZE)
        partials = lfs.stats.partials_written
        lfs.sync()
        assert lfs.stats.partials_written > partials

    def test_log_position_advances(self, lfs):
        pos0 = lfs.log_position()
        lfs.write_path("/f", b"x" * (64 * 1024))
        lfs.sync()
        assert lfs.log_position() > pos0

    def test_data_lands_where_bmap_says(self, lfs, app):
        lfs.write_path("/f", b"Z" * BLOCK_SIZE)
        lfs.sync()
        ino = lfs.get_inode(lfs.lookup("/f"))
        daddr = lfs.bmap(ino, 0)
        assert daddr != UNASSIGNED
        assert lfs.dev_read(app, daddr, 1) == b"Z" * BLOCK_SIZE

    def test_rewrite_relocates_block(self, lfs):
        lfs.write_path("/f", b"1" * BLOCK_SIZE)
        lfs.sync()
        ino = lfs.get_inode(lfs.lookup("/f"))
        first = lfs.bmap(ino, 0)
        lfs.write_path("/f", b"2" * BLOCK_SIZE)
        lfs.sync()
        second = lfs.bmap(ino, 0)
        assert second != first  # no overwrite in place

    def test_live_bytes_move_with_block(self, lfs):
        lfs.write_path("/f", b"1" * BLOCK_SIZE)
        # Fill past the first segment so later writes land elsewhere.
        lfs.write_path("/filler", os.urandom(int(1.5 * MB)))
        lfs.sync()
        ino = lfs.get_inode(lfs.lookup("/f"))
        old_segno = lfs.segno_of(lfs.bmap(ino, 0))
        assert old_segno != lfs.cur_segno
        old_live = lfs.ifile.seguse(old_segno).live_bytes
        lfs.write_path("/f", b"2" * BLOCK_SIZE)
        lfs.sync()
        assert lfs.ifile.seguse(old_segno).live_bytes <= old_live - BLOCK_SIZE

    def test_segment_advance_on_fill(self, lfs):
        seg0 = lfs.cur_segno
        lfs.write_path("/big", os.urandom(3 * MB))
        lfs.sync()
        assert lfs.cur_segno != seg0
        assert lfs.ifile.seguse(lfs.cur_segno).is_active()
        assert not lfs.ifile.seguse(seg0).is_active()
        assert lfs.ifile.seguse(seg0).is_dirty()

    def test_summary_chain_within_segment(self, lfs, app):
        lfs.write_path("/a", b"a" * BLOCK_SIZE)
        lfs.sync()
        lfs.write_path("/b", b"b" * BLOCK_SIZE)
        lfs.sync()
        # Walk the first segment: at least two partials chained.
        partials = list(walk_segment(lfs, app, 0))
        assert len(partials) >= 2

    def test_summary_records_file_blocks(self, lfs, app):
        lfs.write_path("/tracked", b"T" * (2 * BLOCK_SIZE))
        lfs.sync()
        inum = lfs.lookup("/tracked")
        found = []
        for summary, entries, _daddrs, _blocks in walk_segment(lfs, app,
                                                               0):
            found += [(i, l) for i, l, _d, _b in entries if i == inum]
        assert (inum, 0) in found and (inum, 1) in found

    def test_no_space_raises(self, app):
        disk = profiles.make_disk(profiles.RZ57, capacity_bytes=8 * MB)
        fs = LFS.mkfs(disk, actor=app)
        with pytest.raises(NoSpace):
            for i in range(40):
                fs.write_path(f"/fill{i}", os.urandom(MB))
                fs.sync()


class TestCheckpointRecovery:
    def test_remount_after_checkpoint(self, lfs, small_disk):
        payload = os.urandom(200_000)
        lfs.mkdir("/d")
        lfs.write_path("/d/f", payload)
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        assert fs2.read_path("/d/f") == payload

    def test_remount_preserves_namespace(self, lfs, small_disk):
        for name in ("a", "b", "c"):
            lfs.create(f"/{name}")
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        assert fs2.readdir("/") == ["a", "b", "c"]

    def test_rollforward_recovers_synced_data(self, lfs, small_disk):
        lfs.checkpoint()
        lfs.write_path("/late", b"after checkpoint")
        lfs.sync()  # no checkpoint: only the log knows
        fs2 = LFS.mount(small_disk)
        assert fs2.read_path("/late") == b"after checkpoint"

    @staticmethod
    def _two_partials_after_checkpoint(lfs, disk, app):
        """Write two synced partials past a checkpoint; return the summary
        addresses reached by following next_daddr from the checkpoint's
        log position, stopping at the writer's log position."""
        lfs.checkpoint()
        pos, chain = lfs.log_position(), []
        lfs.write_path("/a", b"a" * BLOCK_SIZE)
        lfs.sync()
        lfs.write_path("/b", b"b" * BLOCK_SIZE)
        lfs.sync()
        while pos != lfs.log_position() and len(chain) < 8:
            chain.append(pos)
            pos = SegmentSummary.unpack(disk.read(app, pos, 1),
                                        lfs.config.summary_size).next_daddr
        return chain

    def test_summary_chain_in_address_order(self, lfs, small_disk, app):
        chain = self._two_partials_after_checkpoint(lfs, small_disk, app)
        assert len(chain) == 2
        assert chain == sorted(chain)

    def test_summary_chain_ends_at_log_position(self, lfs, small_disk, app):
        chain = self._two_partials_after_checkpoint(lfs, small_disk, app)
        # The walk terminates at the writer's log position rather than
        # spinning on the unwritten tail; roll-forward ends there too.
        assert len(chain) == 2
        last = SegmentSummary.unpack(small_disk.read(app, chain[-1], 1),
                                     lfs.config.summary_size)
        assert last.next_daddr == lfs.log_position()
        fs2 = LFS.mount(small_disk)
        assert fs2.read_path("/b") == b"b" * BLOCK_SIZE
        assert fs2.log_position() == lfs.log_position()

    def test_unsynced_data_lost(self, lfs, small_disk):
        lfs.checkpoint()
        lfs.write_path("/ghost", b"never flushed")
        # no sync, no checkpoint: crash
        fs2 = LFS.mount(small_disk)
        with pytest.raises(Exception):
            fs2.read_path("/ghost")

    def test_rollforward_stops_at_torn_partial(self, lfs, small_disk, app):
        lfs.checkpoint()
        lfs.write_path("/good", b"good data")
        lfs.sync()
        pos_after_good = lfs.log_position()
        lfs.write_path("/torn", b"torn data")
        lfs.sync()
        # Corrupt the summary of the second post-checkpoint partial.
        raw = bytearray(small_disk.read(app, pos_after_good, 1))
        raw[8] ^= 0xFF
        small_disk.write(app, pos_after_good, bytes(raw))
        fs2 = LFS.mount(small_disk)
        assert fs2.read_path("/good") == b"good data"
        with pytest.raises(Exception):
            fs2.read_path("/torn")

    def test_rollforward_verifies_datasum(self, lfs, small_disk, app):
        lfs.checkpoint()
        pos = lfs.log_position()
        lfs.write_path("/x", b"X" * BLOCK_SIZE)
        lfs.sync()
        # Corrupt the first data block of the partial (summary intact).
        small_disk.write(app, pos + 1, b"\xFF" * BLOCK_SIZE)
        fs2 = LFS.mount(small_disk)
        with pytest.raises(Exception):
            fs2.read_path("/x")

    def test_checkpoint_serial_increases(self, lfs):
        s1 = lfs.sb.latest_checkpoint().serial
        lfs.checkpoint()
        assert lfs.sb.latest_checkpoint().serial == s1 + 1

    def test_repeated_mounts_stable(self, lfs, small_disk):
        lfs.write_path("/stable", b"abc")
        lfs.checkpoint()
        for _ in range(3):
            fs = LFS.mount(small_disk)
            assert fs.read_path("/stable") == b"abc"
            fs.checkpoint()

    def test_remount_continues_writing(self, lfs, small_disk):
        lfs.write_path("/one", b"1")
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        fs2.write_path("/two", b"2")
        fs2.checkpoint()
        fs3 = LFS.mount(small_disk)
        assert fs3.read_path("/one") == b"1"
        assert fs3.read_path("/two") == b"2"


class TestCleaner:
    def _churn(self, fs, rounds=6, size=MB):
        """Create and delete files to make dirty, mostly-dead segments."""
        for i in range(rounds):
            fs.write_path(f"/churn{i}", os.urandom(size))
            fs.sync()
        for i in range(rounds - 1):
            fs.unlink(f"/churn{i}")
        fs.checkpoint()

    def test_cleaning_reclaims_segments(self, lfs):
        self._churn(lfs)
        before = lfs.ifile.clean_count()
        cleaner = Cleaner(lfs, GreedyPolicy(), target_clean=10_000,
                          max_per_pass=50)
        cleaned = cleaner.clean_pass()
        assert cleaned > 0
        assert lfs.ifile.clean_count() > before

    def test_cleaning_preserves_live_data(self, lfs):
        keep = os.urandom(300_000)
        lfs.write_path("/keep", keep)
        self._churn(lfs)
        cleaner = Cleaner(lfs, GreedyPolicy(), target_clean=10_000,
                          max_per_pass=50)
        cleaner.clean_pass()
        assert lfs.read_path("/keep") == keep

    def test_cleaned_data_survives_remount(self, lfs, small_disk):
        keep = os.urandom(300_000)
        lfs.write_path("/keep", keep)
        self._churn(lfs)
        Cleaner(lfs, GreedyPolicy(), target_clean=10_000,
                max_per_pass=50).clean_pass()
        lfs.checkpoint()
        fs2 = LFS.mount(small_disk)
        assert fs2.read_path("/keep") == keep

    def test_greedy_prefers_emptier(self, lfs):
        self._churn(lfs)
        policy = GreedyPolicy()
        victims = policy.select(lfs, 3)
        ranks = [policy.rank(lfs, s) for s in victims]
        assert ranks == sorted(ranks, reverse=True)

    def test_cost_benefit_prefers_old_empty(self, lfs, app):
        self._churn(lfs)
        dirty = list(lfs.ifile.dirty_segments())
        assert dirty
        app.sleep(1000)
        policy = CostBenefitPolicy()
        cleaner = Cleaner(lfs, policy)
        ranked = policy.select(lfs, len(dirty))
        # An almost-dead old segment must outrank a full young one.
        assert ranked

    def test_active_segment_never_cleaned(self, lfs):
        cleaner = Cleaner(lfs, GreedyPolicy())
        assert not cleaner.clean_segment(lfs.cur_segno)

    def test_clean_segment_already_clean(self, lfs):
        cleaner = Cleaner(lfs, GreedyPolicy())
        clean = next(lfs.ifile.clean_segments())
        assert not cleaner.clean_segment(clean)

    def test_run_until_target(self, lfs):
        self._churn(lfs, rounds=8)
        target = lfs.ifile.clean_count() + 2
        cleaner = Cleaner(lfs, GreedyPolicy(), target_clean=target)
        cleaner.run()
        assert lfs.ifile.clean_count() >= target

    def test_cleaner_updates_counters(self, lfs):
        self._churn(lfs)
        cleaner = Cleaner(lfs, GreedyPolicy(), max_per_pass=2)
        cleaner.clean_pass()
        assert cleaner.segments_cleaned > 0

    def test_cleaning_with_dirty_cache_copy(self, lfs):
        """A dirty in-memory copy must not be clobbered by stale media."""
        lfs.write_path("/f", b"A" * BLOCK_SIZE)
        lfs.sync()
        inum = lfs.lookup("/f")
        lfs.write(inum, 0, b"B" * BLOCK_SIZE)  # dirty, unsynced
        segno = lfs.segno_of(lfs.bmap(lfs.get_inode(inum), 0))
        # force-clean the segment holding the old copy
        lfs.ifile.seguse(segno).flags &= ~0x04  # clear ACTIVE if set
        Cleaner(lfs, GreedyPolicy()).clean_segment(segno)
        lfs.sync()
        assert lfs.read(inum, 0, BLOCK_SIZE) == b"B" * BLOCK_SIZE
