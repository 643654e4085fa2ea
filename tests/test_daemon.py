"""Tests for the watermark-driven automigration daemon."""

import os

import pytest

from tests.conftest import HLBed
from repro.core.daemon import AutoMigrationDaemon
from repro.core.migrator import Migrator
from repro.core.policies import STPPolicy
from repro.lfs.check import check_filesystem
from repro.util.units import MB


def _loaded_bed(fill_mb=20):
    bed = HLBed(disk_bytes=48 * MB, n_platters=8)
    fs, app = bed.fs, bed.app
    fs.mkdir("/bulk")
    for i in range(fill_mb):
        fs.write_path(f"/bulk/f{i}", os.urandom(MB))
    fs.checkpoint()
    app.sleep(3600)
    migrator = Migrator(fs, policy=STPPolicy(target_bytes=6 * MB))
    return bed, migrator


class TestWatermarks:
    def test_validation(self):
        bed, migrator = _loaded_bed(fill_mb=2)
        with pytest.raises(ValueError):
            AutoMigrationDaemon(bed.fs, migrator, high_water=0.3,
                                low_water=0.5)

    def test_utilization_gauge(self):
        bed, migrator = _loaded_bed(fill_mb=2)
        daemon = AutoMigrationDaemon(bed.fs, migrator)
        util = daemon.disk_utilization()
        assert 0.0 < util < 1.0

    def test_quiet_below_high_water(self):
        bed, migrator = _loaded_bed(fill_mb=2)
        daemon = AutoMigrationDaemon(bed.fs, migrator, high_water=0.95,
                                     low_water=0.5)
        summary = daemon.tick()
        assert summary["migrated_files"] == 0

    def test_migrates_above_high_water(self):
        bed, migrator = _loaded_bed(fill_mb=20)
        daemon = AutoMigrationDaemon(bed.fs, migrator, high_water=0.3,
                                     low_water=0.2)
        summary = daemon.tick()
        assert summary["migrated_files"] > 0
        assert summary["cleaned_segments"] > 0
        assert summary["utilization_after"] < summary["utilization_before"]

    def test_run_until_calm_reaches_target(self):
        bed, migrator = _loaded_bed(fill_mb=20)
        daemon = AutoMigrationDaemon(bed.fs, migrator, high_water=0.5,
                                     low_water=0.35)
        daemon.run_until_calm(max_ticks=16)
        assert daemon.disk_utilization() < 0.5 + 0.15

    def test_data_survives_daemon_drain(self):
        bed, migrator = _loaded_bed(fill_mb=16)
        daemon = AutoMigrationDaemon(bed.fs, migrator, high_water=0.3,
                                     low_water=0.2)
        daemon.run_until_calm(max_ticks=16)
        report = check_filesystem(bed.fs)
        assert report.ok, report.errors
        # Every file still reads back (some now through demand fetches).
        for i in range(16):
            assert len(bed.fs.read_path(f"/bulk/f{i}")) == MB
