"""Smoke tests for the benchmark harness at reduced scale, so the bench
machinery is exercised by the plain test suite too."""

from repro.bench import harness, tables
from repro.bench.__main__ import main
from repro.bench.policy_eval import SiteSpec, evaluate_policy
from repro.core.policies import STPPolicy
from repro.util.units import KB, MB


class TestTestbeds:
    def test_make_ffs(self):
        bed = harness.make_ffs(partition_bytes=32 * MB)
        bed.fs.write_path("/x", b"abc")
        assert bed.fs.read_path("/x") == b"abc"

    def test_make_lfs(self):
        bed = harness.make_lfs(partition_bytes=32 * MB)
        bed.fs.write_path("/x", b"abc")
        assert bed.fs.read_path("/x") == b"abc"

    def test_make_highlight_single_disk(self):
        bed = harness.make_highlight(partition_bytes=64 * MB,
                                     n_platters=2)
        assert bed.jukebox is not None
        assert bed.migrator is not None
        assert len(bed.disks) == 1

    def test_make_highlight_staging_disk(self):
        from repro.blockdev import profiles
        bed = harness.make_highlight(partition_bytes=64 * MB,
                                     staging_profile=profiles.RZ58,
                                     n_platters=2)
        assert len(bed.disks) == 2
        assert bed.fs.config.cache_prefer_high

    def test_preload_write_volume(self):
        bed = harness.make_highlight(partition_bytes=64 * MB,
                                     n_platters=2)
        harness.preload_write_volume(bed)
        first = bed.fs.tsegfile.volumes[0].volume_id
        assert bed.jukebox.drive_holding(first) is not None


class TestTableRunnersSmoke:
    def test_table1(self):
        measured, report = tables.run_table1()
        assert measured["per_file"] == 12
        assert "Table 1" in report.render()

    def test_table5_quick(self):
        results, _report = tables.run_table5(transfer_mb=2)
        assert results["rz57_read"] > results["rz57_write"]
        assert results["volume_change"] > 10

    def test_table2_scaled_down(self):
        results, _report = tables.run_table2(
            configs=["lfs"], seq_frames=200, rand_frames=30)
        phases = results["lfs"]
        assert len(phases) == 6
        assert all(p.seconds > 0 for p in phases)

    def test_migration_pipeline_scaled(self):
        run = tables.run_migration_pipeline(None, file_bytes=3 * MB)
        assert run.total_bytes >= 3 * MB
        assert run.finish > run.migrator_finish >= run.start_time
        assert run.breakdown["footprint_write"] > 0
        assert run.overall_rate() > 0

    def test_migration_pipeline_staging_disk(self):
        run = tables.run_migration_pipeline("rz58", file_bytes=3 * MB)
        assert run.total_bytes >= 3 * MB


class TestPolicyEvalSmoke:
    def test_evaluate_single_policy(self):
        spec = SiteSpec(units=2, files_per_unit=3,
                        mean_file_bytes=80 * KB,
                        reactivation_bursts=5,
                        migration_target=256 * KB)
        result = evaluate_policy(
            "stp", lambda: STPPolicy(target_bytes=spec.migration_target),
            spec)
        assert result.files_migrated > 0
        assert result.reads > 0
        assert result.mean_read_latency >= 0


class TestCLIRunner:
    def test_main_selection(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_unknown(self, capsys):
        assert main(["tableX"]) == 2
        # The segment-I/O A/B harness is gone; its flag is just unknown.
        assert main(["--perf"]) == 2

    def test_main_figure(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "structural facts hold" in out
