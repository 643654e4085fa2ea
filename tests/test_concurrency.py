"""Concurrency tests: migration, cleaning, and application I/O overlap.

"Keeping them separate also allows migration and cleaning to proceed
simultaneously" (paper §6.2) — the migrator and the cleaner are distinct
user-level processes.  These tests interleave them (and an application)
under the deterministic scheduler and verify integrity and determinism.
"""

import os
import random

from tests.conftest import HLBed
from repro.lfs.check import check_filesystem
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.sim.actor import Actor
from repro.sim.scheduler import Scheduler
from repro.util.units import KB, MB


def _populated_bed(seed=3):
    bed = HLBed(disk_bytes=128 * MB, n_platters=6)
    fs, app = bed.fs, bed.app
    rng = random.Random(seed)
    data = {}
    fs.mkdir("/live")
    for i in range(6):
        path = f"/live/f{i}"
        data[path] = os.urandom(rng.randrange(100, 600) * KB)
        fs.write_path(path, data[path])
    # churn to give the cleaner something to reclaim
    for i in range(4):
        fs.write_path(f"/dead{i}", os.urandom(MB))
        fs.sync()
    for i in range(4):
        fs.unlink(f"/dead{i}")
    fs.checkpoint()
    app.sleep(600)
    return bed, data


class TestMigratorCleanerOverlap:
    def test_simultaneous_migration_and_cleaning(self):
        bed, data = _populated_bed()
        fs = bed.fs
        mig_actor = Actor("mig")
        clean_actor = Actor("cln")
        mig_actor.sleep_until(bed.app.time)
        clean_actor.sleep_until(bed.app.time)
        cleaner = Cleaner(fs, GreedyPolicy(), actor=clean_actor,
                          target_clean=10_000, max_per_pass=1)

        def migrator_task():
            for path in list(data)[:4]:
                yield from bed.migrator.migrate_file_steps(path, mig_actor)
            bed.migrator.flush(mig_actor)
            yield

        def cleaner_task():
            for _ in range(6):
                cleaner.clean_pass()
                yield

        sched = Scheduler()
        sched.add(mig_actor, migrator_task())
        sched.add(clean_actor, cleaner_task())
        sched.run()

        fs.checkpoint()
        for path, payload in data.items():
            assert fs.read_path(path) == payload, path
        report = check_filesystem(fs)
        assert report.ok, report.errors
        assert cleaner.segments_cleaned > 0
        assert bed.migrator.stats.files_migrated == 4

    def test_deterministic_interleaving(self):
        """Two identical runs must produce identical virtual timings —
        the substitution DESIGN.md promises for the concurrency model."""
        finish_times = []
        for _ in range(2):
            bed, data = _populated_bed(seed=5)
            mig_actor = Actor("mig")
            mig_actor.sleep_until(bed.app.time)

            def task():
                for path in list(data)[:3]:
                    yield from bed.migrator.migrate_file_steps(
                        path, mig_actor)
                bed.migrator.flush(mig_actor)
                yield

            sched = Scheduler()
            sched.add(mig_actor, task())
            sched.run()
            finish_times.append(mig_actor.time)
        assert finish_times[0] == finish_times[1]

    def test_application_reads_during_migration(self):
        bed, data = _populated_bed()
        fs = bed.fs
        mig_actor = Actor("mig")
        reader = Actor("reader")
        mig_actor.sleep_until(bed.app.time)
        reader.sleep_until(bed.app.time)
        hot = list(data)[5]  # not being migrated
        state = {"done": False, "reads": 0}

        def migrator_task():
            for path in list(data)[:4]:
                yield from bed.migrator.migrate_file_steps(path, mig_actor)
            bed.migrator.flush(mig_actor)
            state["done"] = True
            yield

        def reader_task():
            while not state["done"]:
                reader.sleep(0.5)
                got = fs.read(fs.lookup(hot, reader), 0, 8 * KB, reader)
                assert got == data[hot][:8 * KB]
                state["reads"] += 1
                yield

        sched = Scheduler()
        sched.add(mig_actor, migrator_task())
        sched.add(reader, reader_task())
        sched.run()
        assert state["reads"] > 3
