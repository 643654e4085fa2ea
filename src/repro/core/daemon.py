"""The automigration daemon: continuous, watermark-driven operation.

Paper §8.2: "HighLight should not require a large periodic computation to
rank files for migration; instead it allows a migrator process to run
continuously, monitoring storage needs and migrating file data as
required."  §8.1 describes the UniTree comparison point: a space-time
metric "coupled with a high-water mark/low-water mark scheme to start and
stop the purging process."

:class:`AutoMigrationDaemon` ties the pieces together the way a deployed
system would: each tick it checks disk utilisation; above the high-water
mark it runs the migration policy until utilisation drops below the
low-water mark (or candidates run out), then runs the disk cleaner to
turn the newly-dead segments back into clean ones, and finally
checkpoints.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.lfs.cleaner import Cleaner, CostBenefitPolicy
from repro.sim.actor import Actor


class AutoMigrationDaemon:
    """Watermark-driven migration + cleaning loop."""

    def __init__(self, fs, migrator,
                 cleaner: Optional[Cleaner] = None,
                 high_water: float = 0.75,
                 low_water: float = 0.55,
                 max_policy_rounds: int = 8) -> None:
        if not 0.0 < low_water < high_water <= 1.0:
            raise ValueError("need 0 < low_water < high_water <= 1")
        self.fs = fs
        self.migrator = migrator
        # The daemon's cleaner shares the migrator's clock, so daemon
        # work is attributed to the daemon, not the application.
        self.cleaner = cleaner or Cleaner(
            fs, CostBenefitPolicy(),
            actor=Actor("daemon-cleaner", clock=migrator.actor.clock),
            target_clean=max(8, fs.ifile.nsegs // 8),
            max_per_pass=8)
        self.high_water = high_water
        self.low_water = low_water
        self.max_policy_rounds = max_policy_rounds
        self.migration_runs = 0

    # -- gauges ------------------------------------------------------------------

    def disk_utilization(self) -> float:
        """Fraction of non-cache disk segments not clean."""
        ifile = self.fs.ifile
        total = ifile.nsegs
        if total == 0:
            return 1.0
        return 1.0 - ifile.clean_count() / total

    def above_high_water(self) -> bool:
        return self.disk_utilization() >= self.high_water

    def below_low_water(self) -> bool:
        return self.disk_utilization() <= self.low_water

    # -- the loop body --------------------------------------------------------------

    def tick(self, actor: Optional[Actor] = None) -> dict:
        """One daemon iteration; returns a summary of what it did."""
        actor = actor or self.migrator.actor
        obs.counter("daemon_ticks_total",
                    "automigration daemon iterations").inc()
        runs_before = self.migration_runs
        summary = {"migrated_files": 0, "cleaned_segments": 0,
                   "utilization_before": self.disk_utilization()}
        if self.above_high_water():
            for _ in range(self.max_policy_rounds):
                stats_before = self.migrator.stats.files_migrated
                self.migrator.run_once(actor)
                moved = self.migrator.stats.files_migrated - stats_before
                summary["migrated_files"] += moved
                self.migration_runs += 1
                summary["cleaned_segments"] += self.cleaner.clean_pass()
                if moved == 0 or self.below_low_water():
                    break
            self.fs.checkpoint(actor)
        else:
            # Housekeeping even when quiet: keep clean headroom healthy.
            if self.cleaner.needs_cleaning():
                summary["cleaned_segments"] += self.cleaner.clean_pass()
        summary["utilization_after"] = self.disk_utilization()
        obs.gauge("daemon_disk_utilization",
                  "fraction of non-cache disk segments not clean").set(
                      summary["utilization_after"])
        obs.counter("daemon_migration_runs_total",
                    "policy runs triggered by the high-water mark").inc(
                        self.migration_runs - runs_before)
        return summary

    def run_until_calm(self, actor: Optional[Actor] = None,
                       max_ticks: int = 32) -> int:
        """Tick until below the high-water mark; returns ticks used."""
        for used in range(1, max_ticks + 1):
            self.tick(actor)
            if not self.above_high_water():
                return used
        return max_ticks
