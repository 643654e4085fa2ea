"""Unit tests: workload generators."""

import pytest

from tests.conftest import HLBed
from repro.bench import harness
from repro.util.units import KB, MB
from repro.workloads.checkpoints import CheckpointWorkload
from repro.workloads.database import DatabaseWorkload
from repro.workloads.filetree import TreeSpec, build_tree
from repro.workloads.largeobject import (FRAME_SIZE, LargeObjectBenchmark,
                                         PhaseResult)
from repro.workloads.traces import ArchivalTrace


class TestLargeObject:
    def test_phase_result_throughput(self):
        r = PhaseResult("p", seconds=2.0, nbytes=2048)
        assert r.throughput == 1024.0

    def test_populate_and_frames(self):
        bed = harness.make_lfs(partition_bytes=96 * MB)
        bench = LargeObjectBenchmark(bed.fs, bed.app, total_frames=500)
        bench.populate()
        assert bed.fs.stat(bench.path).size == 500 * FRAME_SIZE
        frame7 = bench._read_frame(7)
        assert frame7 == bench._frame_content(7)

    def test_run_scaled_down(self):
        bed = harness.make_lfs(partition_bytes=64 * MB)
        bench = LargeObjectBenchmark(bed.fs, bed.app, total_frames=400)
        results = bench.run(seq_frames=100, rand_frames=20)
        assert len(results) == 6
        assert all(r.seconds > 0 for r in results)

    def test_locality_frames_mostly_sequential(self):
        bed = harness.make_lfs(partition_bytes=64 * MB)
        bench = LargeObjectBenchmark(bed.fs, bed.app, total_frames=10_000,
                                     seed=5)
        frames = bench._locality_frames(1000)
        sequential = sum(1 for a, b in zip(frames, frames[1:])
                         if b == (a + 1) % 10_000)
        assert 700 < sequential < 900  # ~80%

    def test_deterministic_with_seed(self):
        bed = harness.make_lfs(partition_bytes=64 * MB)
        b1 = LargeObjectBenchmark(bed.fs, bed.app, seed=3)
        b2 = LargeObjectBenchmark(bed.fs, bed.app, seed=3)
        assert b1._random_frames(50) == b2._random_frames(50)


class TestFileTree:
    def test_build_tree_structure(self):
        bed = HLBed()
        spec = TreeSpec(units=3, files_per_unit=4, mean_file_bytes=2 * KB)
        units = build_tree(bed.fs, bed.app, "/projects", spec)
        assert len(units) == 3
        for unit, files in units.items():
            assert len(files) == 4
            for path in files:
                assert bed.fs.stat(path).size > 0


class TestArchivalTrace:
    def test_events_shape(self):
        trace = ArchivalTrace(["/a", "/b"], [10 * KB, 10 * KB],
                              seed=1, burst_length=4)
        events = list(trace.events(10))
        assert events
        # Bursts: most events have tiny think time, the burst heads don't.
        heads = [e for e in events if e.think_time > 0.5]
        assert heads

    def test_skew_prefers_popular(self):
        trace = ArchivalTrace([f"/f{i}" for i in range(20)],
                              [KB] * 20, zipf_s=1.5, seed=2)
        picks = [trace._pick_file() for _ in range(500)]
        assert picks.count(0) > picks.count(19)

    def test_replay_against_fs(self):
        bed = HLBed()
        paths = []
        for i in range(3):
            p = f"/t{i}"
            bed.fs.write_path(p, b"d" * (8 * KB))
            paths.append(p)
        bed.fs.checkpoint()
        trace = ArchivalTrace(paths, [8 * KB] * 3, seed=3,
                              mean_think=1.0)
        count = trace.replay(bed.fs, bed.app, n_bursts=5)
        assert count > 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArchivalTrace(["/a"], [1, 2])


class TestCheckpointWorkload:
    def test_dump_and_restore(self):
        bed = HLBed()
        wl = CheckpointWorkload(checkpoint_bytes=256 * KB, interval=60.0)
        paths = wl.dump_generations(bed.fs, bed.app, count=2)
        assert len(paths) == 2
        assert wl.restore(bed.fs, bed.app, paths[0]) == 256 * KB

    def test_generations_age_apart(self):
        bed = HLBed()
        wl = CheckpointWorkload(checkpoint_bytes=64 * KB, interval=100.0)
        paths = wl.dump_generations(bed.fs, bed.app, count=2)
        t0 = bed.fs.stat(paths[0]).mtime
        t1 = bed.fs.stat(paths[1]).mtime
        assert t1 - t0 >= 100.0


class TestDatabaseWorkload:
    def test_populate_and_query(self):
        bed = HLBed()
        wl = DatabaseWorkload(relation_bytes=MB, seed=4)
        wl.populate(bed.fs, bed.app)
        counters = wl.run_queries(bed.fs, bed.app, accesses=50,
                                  think_time=0.01)
        assert counters["reads"] + counters["writes"] == 50

    def test_hot_set_skew(self):
        import random
        wl = DatabaseWorkload(relation_bytes=4 * MB, hot_fraction=0.1,
                              hot_probability=0.9)
        rng = random.Random(1)
        hot_pages = int(wl.npages * 0.1)
        picks = [wl._pick_page(rng) for _ in range(1000)]
        hot_hits = sum(1 for p in picks if p < hot_pages)
        assert hot_hits > 800
