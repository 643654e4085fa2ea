"""Tests for repro.faults: health states, injection, retry, recovery.

The unit half exercises the pieces in isolation (state machine, spec
matching, seeded backoff); the integration half wires a
:class:`~repro.faults.FaultManager` onto a compact HighLight bed and
checks the paper-level guarantee — acknowledged bytes survive transient
storms, dead media, and the repair sweep that follows.  The last part
covers the device-level failure behaviour underneath all of that: a
quarantined medium with no recovery stack above it, the bus-hogging
changer, and the alternate (tape, WORM) jukeboxes.
"""

import os
from types import SimpleNamespace

import pytest

import repro
from repro import obs
from repro.blockdev import profiles
from repro.blockdev.bus import SCSIBus
from repro.cluster import ClusterNode, ClusterRouter, MigrationCoordinator
from repro.core.highlight import HighLightConfig, HighLightFS
from repro.core.migrator import Migrator
from repro.core.replicas import ReplicaManager
from repro.errors import (DeviceError, DriveTimeout, MediaFailure,
                          MountFailure, PermanentDeviceError, ReadOnlyMedium,
                          TransientDeviceError, TransientMediaError)
from repro.faults import (DEFAULT_CLASS_POLICIES, FaultInjector, FaultManager,
                          FaultPlan, FaultSpec, HealthRegistry,
                          KIND_MEDIA_DEAD, KIND_MEDIA_ERROR,
                          KIND_MOUNT_FAILURE, KIND_SLOW_IO, RetryClassPolicy,
                          RetryPolicy, VolumeHealth)
from repro.footprint.robot import JukeboxFootprint
from repro.frontend import NodeBackend
from repro.persist.crashsim import CrashHarness
from repro.sched import CLASS_WRITEOUT, MODE_SCHEDULED
from repro.sim.actor import Actor
from repro.util.units import KB, MB
from tests.conftest import HLBed


def _payload(tag, nbytes=MB):
    return bytes((tag * 37 + j * 11) & 0xFF for j in range(256)) * \
        (nbytes // 256)


# ---------------------------------------------------------------------------
# Health states and the redesigned device-health API
# ---------------------------------------------------------------------------

class TestVolumeHealth:
    def test_serving_predicate(self):
        assert VolumeHealth.ONLINE.serving
        assert VolumeHealth.DEGRADED.serving
        assert not VolumeHealth.QUARANTINED.serving
        assert not VolumeHealth.RETIRED.serving

    def test_failed_alias_is_gone(self):
        # The PR 5 transitional ``Volume.failed`` bool was removed once
        # every caller read the health enum; it must not quietly return.
        bed = HLBed()
        vol = next(iter(bed.jukebox.volumes.values()))
        assert vol.health is VolumeHealth.ONLINE
        assert not hasattr(type(vol), "failed")
        vol.health = VolumeHealth.QUARANTINED
        assert not vol.health.serving
        vol.health = VolumeHealth.ONLINE
        assert vol.health.serving

    def test_volume_info_surfaces_health(self):
        bed = HLBed()
        vid = next(iter(bed.jukebox.volumes))
        assert bed.footprint.volume_info(vid).health is VolumeHealth.ONLINE
        bed.jukebox.volumes[vid].health = VolumeHealth.QUARANTINED
        assert bed.footprint.volume_info(vid).health is \
            VolumeHealth.QUARANTINED


class TestDeviceErrorContext:
    def test_str_carries_structured_context(self):
        exc = MediaFailure("boom", volume_id=3, blkno=70, attempt=2)
        assert "volume=3" in str(exc)
        assert "blkno=70" in str(exc)
        assert "attempt=2" in str(exc)
        assert "MediaFailure" in repr(exc)

    def test_plain_message_stays_plain(self):
        assert str(DeviceError("just words")) == "just words"

    def test_taxonomy(self):
        assert issubclass(TransientMediaError, TransientDeviceError)
        assert issubclass(MountFailure, TransientDeviceError)
        assert issubclass(DriveTimeout, TransientDeviceError)
        assert issubclass(MediaFailure, PermanentDeviceError)
        for cls in (TransientDeviceError, PermanentDeviceError):
            assert issubclass(cls, DeviceError)


class TestHealthRegistry:
    def _registry(self, budget=3, vols=(1, 2)):
        jukebox = SimpleNamespace(volumes={
            vid: SimpleNamespace(health=VolumeHealth.ONLINE) for vid in vols})
        return HealthRegistry(jukebox, error_budget=budget), jukebox

    def test_budget_walks_online_degraded_quarantined(self):
        reg, _ = self._registry(budget=3)
        assert reg.record_error(1, 0.0) is VolumeHealth.DEGRADED
        assert reg.record_error(1, 1.0) is VolumeHealth.DEGRADED
        assert reg.record_error(1, 2.0) is VolumeHealth.QUARANTINED
        assert reg.quarantine_reasons[1] == "error_budget"
        assert reg.quarantined() == [1]

    def test_served_io_clears_the_budget(self):
        # The budget counts *consecutive* failures: scattered transient
        # noise absorbed by retry never adds up to a quarantine.
        reg, jb = self._registry(budget=3)
        reg.record_error(1, 0.0)
        reg.record_error(1, 1.0)
        reg.record_success(1)
        assert reg.errors[1] == 0
        assert jb.volumes[1].health is VolumeHealth.ONLINE
        for t in range(3):
            reg.record_error(1, float(t))
        assert jb.volumes[1].health is VolumeHealth.QUARANTINED

    def test_permanent_error_quarantines_immediately(self):
        reg, _ = self._registry()
        health = reg.record_error(2, 0.0, permanent=True, kind="media_dead")
        assert health is VolumeHealth.QUARANTINED
        assert reg.quarantine_reasons[2] == "media_dead"

    def test_retire_and_idempotence(self):
        reg, jb = self._registry()
        reg.quarantine(1, 0.0, reason="manual")
        reg.quarantine(1, 1.0, reason="other")   # idempotent: first wins
        assert reg.quarantine_reasons[1] == "manual"
        reg.retire(1, 2.0)
        assert jb.volumes[1].health is VolumeHealth.RETIRED
        assert reg.quarantined() == []

    def test_unknown_volume_is_online_and_uncharged(self):
        reg, _ = self._registry()
        assert reg.record_error(99, 0.0) is VolumeHealth.ONLINE
        assert reg.record_error(None, 0.0) is VolumeHealth.ONLINE

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthRegistry(SimpleNamespace(volumes={}), error_budget=0)


# ---------------------------------------------------------------------------
# Fault plans and the injector
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor_strike")
        with pytest.raises(ValueError):
            FaultSpec(KIND_MEDIA_ERROR, probability=1.5)

    def test_count_expires_spec(self):
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_ERROR, count=1))
        injector = FaultInjector(plan)
        actor = Actor("t")
        with pytest.raises(TransientMediaError):
            injector.on_io(actor, "read", 1, 0, 8)
        injector.on_io(actor, "read", 1, 0, 8)   # spent: no raise
        assert injector.injected == 1

    def test_slow_io_spends_time_not_errors(self):
        plan = FaultPlan().add(FaultSpec(KIND_SLOW_IO, delay=0.4))
        injector = FaultInjector(plan)
        actor = Actor("t")
        for _ in range(3):
            injector.on_io(actor, "read", 1, 0, 8)
        assert actor.time == pytest.approx(1.2)
        assert injector.injected == 3            # never expires by count

    def test_window_and_op_filters(self):
        spec = FaultSpec(KIND_MEDIA_ERROR, at=10.0, until=20.0, op="read",
                         volume_id=5)
        assert not spec.matches(5.0, 5, "read")      # before the window
        assert not spec.matches(25.0, 5, "read")     # after the window
        assert not spec.matches(15.0, 5, "write")    # wrong op
        assert not spec.matches(15.0, 6, "read")     # wrong volume
        assert spec.matches(15.0, 5, "read")

    def test_mount_failure_raises_after_wasted_trip(self):
        bed = HLBed()
        vid = next(iter(bed.jukebox.volumes))
        plan = FaultPlan().add(FaultSpec(KIND_MOUNT_FAILURE, op="mount",
                                         count=1, delay=13.5))
        bed.jukebox.fault_injector = FaultInjector(plan)
        t0 = bed.app.time
        with pytest.raises(MountFailure):
            bed.jukebox.load(bed.app, vid)
        assert bed.app.time - t0 >= 13.5
        bed.jukebox.load(bed.app, vid)           # spec spent: seats fine
        assert bed.jukebox.drive_holding(vid) is not None

    def test_probabilistic_firing_is_seeded(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed).add(
                FaultSpec(KIND_MEDIA_ERROR, probability=0.5, count=64))
            injector = FaultInjector(plan)
            actor = Actor("t")
            fired = []
            for _ in range(32):
                try:
                    injector.on_io(actor, "read", 1, 0, 8)
                    fired.append(0)
                except TransientMediaError:
                    fired.append(1)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_disabled_injector_is_inert(self):
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_ERROR))
        injector = FaultInjector(plan)
        injector.enabled = False
        injector.on_io(Actor("t"), "read", 1, 0, 8)
        assert injector.injected == 0


# ---------------------------------------------------------------------------
# RetryPolicy: bounded, seeded, virtual-time backoff
# ---------------------------------------------------------------------------

def _flaky_timeline(seed, failures=3, rclass="writeout"):
    """Run one op that fails ``failures`` times; return attempt times."""
    actor = Actor("t")
    policy = RetryPolicy(seed=seed)
    times = []
    state = {"left": failures}

    def op():
        times.append(actor.time)
        if state["left"] > 0:
            state["left"] -= 1
            raise TransientMediaError("flaky", volume_id=1, blkno=0)
        return "ok"

    assert policy.run(actor, rclass, op) == "ok"
    return times


class TestRetryPolicy:
    def test_transient_errors_absorbed_with_backoff(self):
        times = _flaky_timeline(seed=1, failures=2)
        assert len(times) == 3
        assert times[0] == 0.0
        assert times[1] > 0.0 and times[2] > times[1]
        retries = [e for e in obs.trace().events() if e.etype == "retry"]
        assert len(retries) == 2
        assert retries[0].fields["attempt"] == 1

    def test_same_seed_same_virtual_timeline(self):
        assert _flaky_timeline(seed=42) == _flaky_timeline(seed=42)

    def test_different_seed_different_jitter(self):
        assert _flaky_timeline(seed=42) != _flaky_timeline(seed=43)

    def test_attempt_budget_escalates_to_media_failure(self):
        actor = Actor("t")
        policy = RetryPolicy(seed=0)

        def always_fails():
            raise DriveTimeout("stuck", volume_id=9, blkno=4)

        with pytest.raises(MediaFailure) as info:
            policy.run(actor, "prefetch", always_fails)   # 2 attempts
        assert info.value.attempt == 2
        assert info.value.volume_id == 9
        assert "attempts" in str(info.value)
        assert policy.escalations == 1

    def test_deadline_escalates(self):
        actor = Actor("t")
        policy = RetryPolicy(seed=0, policies={
            "demand": RetryClassPolicy(max_attempts=99, base_backoff=1.0,
                                       deadline=0.3)})

        def always_fails():
            raise TransientMediaError("flaky", volume_id=1)

        with pytest.raises(MediaFailure) as info:
            policy.run(actor, "demand", always_fails)
        assert "deadline" in str(info.value)

    def test_permanent_errors_never_retried(self):
        policy = RetryPolicy(seed=0)

        def dead():
            raise MediaFailure("gone", volume_id=1)

        with pytest.raises(MediaFailure):
            policy.run(Actor("t"), "writeout", dead)
        assert policy.attempts == 0

    def test_health_registry_sees_every_failed_attempt(self):
        jukebox = SimpleNamespace(volumes={
            1: SimpleNamespace(health=VolumeHealth.ONLINE),
            2: SimpleNamespace(health=VolumeHealth.ONLINE)})
        reg = HealthRegistry(jukebox, error_budget=5)
        policy = RetryPolicy(seed=0, health=reg)
        state = {"left": 2}
        seen = []

        def op():
            if state["left"] > 0:
                state["left"] -= 1
                raise TransientMediaError("flaky", volume_id=1)
            seen.append((reg.errors[1], jukebox.volumes[1].health))
            return "ok"

        policy.run(Actor("t"), "writeout", op, volume_id=1)
        # Both failed attempts were charged before the third ran; the
        # served operation then cleared the budget and the degradation.
        assert seen == [(2, VolumeHealth.DEGRADED)]
        assert reg.errors[1] == 0
        assert jukebox.volumes[1].health is VolumeHealth.ONLINE

        def dead():
            raise MediaFailure("gone", volume_id=2)

        with pytest.raises(MediaFailure):
            policy.run(Actor("t"), "writeout", dead, volume_id=2)
        assert reg.errors[2] == 1
        assert reg.quarantine_reasons[2] == "MediaFailure"

    def test_class_table_and_config_overrides(self):
        policy = RetryPolicy()
        assert policy.policy_for("demand").max_attempts == \
            DEFAULT_CLASS_POLICIES["demand"].max_attempts
        assert policy.policy_for("no_such_class") == RetryClassPolicy()
        bed = HLBed()
        uniform = RetryClassPolicy(max_attempts=2, base_backoff=0.125)
        policy = RetryPolicy(policies={rclass: uniform for rclass
                                       in DEFAULT_CLASS_POLICIES})
        fm = FaultManager(bed.fs, retry=policy)
        assert fm.retry is policy is bed.fs.footprint.retry
        assert policy.health is bed.fs.health
        assert policy.sched is bed.fs.sched
        for rclass in DEFAULT_CLASS_POLICIES:
            assert fm.retry.policy_for(rclass).max_attempts == 2
            assert fm.retry.policy_for(rclass).base_backoff == 0.125


# ---------------------------------------------------------------------------
# End-to-end recovery on a HighLight bed
# ---------------------------------------------------------------------------

_FILES = {f"/keep/f{i}": _payload(i + 1) for i in range(3)}


def _bed(copies=None, plan=None, faults_before_migrate=False,
         **fm_kwargs):
    """A migrated bed with every byte acknowledged tertiary-side."""
    bed = HLBed(n_platters=6, platter_bytes=8 * MB)
    replicas = ReplicaManager(bed.fs, copies=copies) if copies else None
    bed.fs.mkdir("/keep")
    for path, payload in _FILES.items():
        bed.fs.write_path(path, payload)
    bed.fs.checkpoint()
    bed.app.sleep(60)
    fm = None
    if faults_before_migrate:
        fm = FaultManager(bed.fs, plan=plan, **fm_kwargs)
    for path in _FILES:
        bed.migrator.migrate_file(path)
    bed.migrator.flush()
    bed.fs.service.flush_cache(bed.app)
    bed.fs.drop_caches(drop_inodes=True)
    if fm is None:
        fm = FaultManager(bed.fs, plan=plan, **fm_kwargs)
    return bed, fm, replicas


def _read_all(bed):
    for path, payload in _FILES.items():
        assert bed.fs.read_path(path) == payload


class TestRecoveryIntegration:
    def test_transient_storm_never_surfaces(self):
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_ERROR, op="read",
                                         count=2))
        bed, fm, _ = _bed(plan=plan)
        _read_all(bed)
        assert fm.retry.attempts == 2
        assert fm.injector.injected == 2
        assert obs.metrics().get("degraded_reads_total") == 0

    def test_dead_primary_served_from_replica(self):
        bed_probe = HLBed(n_platters=6, platter_bytes=8 * MB)
        victim = bed_probe.fs.tsegfile.volumes[0].volume_id
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_DEAD, op="read",
                                         volume_id=victim))
        bed, fm, replicas = _bed(copies=1, plan=plan)
        _read_all(bed)
        assert replicas.degraded_reads >= 1
        assert fm.health.health_of(victim) is VolumeHealth.QUARANTINED
        assert replicas.replica_reads >= 1
        # One destroyed medium, one charge — not one per layer that saw
        # the MediaFailure go by — and the quarantine keeps its cause.
        assert fm.health.errors[victim] == 1
        assert fm.health.quarantine_reasons[victim] == KIND_MEDIA_DEAD

    def test_error_budget_quarantines_flapping_volume(self):
        bed_probe = HLBed(n_platters=6, platter_bytes=8 * MB)
        victim = bed_probe.fs.tsegfile.volumes[0].volume_id
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_ERROR, op="read",
                                         volume_id=victim, count=99))
        bed, fm, _ = _bed(copies=1, plan=plan)
        _read_all(bed)
        assert fm.health.quarantine_reasons[victim] == "error_budget"
        assert not fm.health.health_of(victim).serving

    def test_writeout_restages_off_dying_volume(self):
        bed_probe = HLBed(n_platters=6, platter_bytes=8 * MB)
        victim = bed_probe.fs.tsegfile.volumes[0].volume_id
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_DEAD, op="write",
                                         volume_id=victim))
        bed, fm, _ = _bed(plan=plan, faults_before_migrate=True)
        # The first copy-out died mid-write; the data was re-staged onto
        # a healthy volume and every byte is still readable.
        assert bed.fs.tsegfile.volumes[0].marked_full
        _read_all(bed)

    def test_restaged_segment_gets_its_replica(self):
        bed_probe = HLBed(n_platters=6, platter_bytes=8 * MB)
        victim = bed_probe.fs.tsegfile.volumes[0].volume_id
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_DEAD, op="write",
                                         volume_id=victim))
        bed, _fm, replicas = _bed(copies=1, plan=plan,
                                  faults_before_migrate=True)
        # Replication follows the segment that actually landed — the
        # re-staged one included — not the tsegno first submitted.
        written = [t for t, _when, _n in bed.fs.ioserver.writeout_log]
        assert written and all(replicas.catalog.get(t) for t in written)
        _read_all(bed)

    def test_repair_daemon_rehomes_and_retires(self):
        bed_probe = HLBed(n_platters=6, platter_bytes=8 * MB)
        victim = bed_probe.fs.tsegfile.volumes[0].volume_id
        plan = FaultPlan().add(FaultSpec(KIND_MEDIA_DEAD, op="read",
                                         volume_id=victim))
        bed, fm, replicas = _bed(copies=1, plan=plan)
        _read_all(bed)  # trips the media_dead, quarantining the victim
        rehomed = fm.repair.run_once(bed.app)
        assert rehomed >= 1
        assert fm.repair.volumes_retired == 1
        assert fm.health.health_of(victim) is VolumeHealth.RETIRED
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        _read_all(bed)  # served without ever touching the retired medium

    def test_remount_starts_with_its_own_registry_and_no_retry(self):
        """The retry policy and health registry belong to the running
        stack, not the devices: a remount over the same Footprint gets a
        fresh ``fs.health`` and runs I/O once until a FaultManager over
        the new filesystem fills the slot again."""
        bed = HLBed()
        old = FaultManager(bed.fs)
        assert bed.footprint.retry is old.retry
        assert old.health is bed.fs.health is old.retry.health
        fs = bed.remount()
        assert fs.health is not old.health
        assert fs.health.jukebox is bed.jukebox
        assert bed.footprint.retry is None
        fm = FaultManager(fs)
        assert bed.footprint.retry is fm.retry
        assert fm.retry.health is fs.health and fm.retry.sched is fs.sched

    def test_chaos_property_no_acknowledged_byte_lost(self):
        # Satellite: seeded chaos with copies=1 loses nothing.
        bed_probe = HLBed(n_platters=6, platter_bytes=8 * MB)
        victim = bed_probe.fs.tsegfile.volumes[0].volume_id
        plan = (FaultPlan(seed=11)
                .add(FaultSpec(KIND_MEDIA_DEAD, op="read",
                               volume_id=victim))
                .add(FaultSpec(KIND_MEDIA_ERROR, op="read", count=5,
                               probability=0.3))
                .add(FaultSpec(KIND_SLOW_IO, op="read", probability=0.25,
                               delay=0.2)))
        bed, fm, _ = _bed(copies=1, plan=plan)
        _read_all(bed)
        fm.repair.run_once(bed.app)
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        _read_all(bed)
        assert fm.injector.injected >= 1


# ---------------------------------------------------------------------------
# Which retry class each Footprint call runs under
# ---------------------------------------------------------------------------

def _repair_sweep():
    bed, fm, _ = _bed(copies=1)
    fm.health.quarantine(bed.fs.tsegfile.volumes[0].volume_id, bed.app.time)
    return lambda: fm.repair.run_once(bed.app)


def _scrub_cycle():
    h = CrashHarness(copies=2)
    h.commit("/s.dat", _payload(7, 256 * KB))
    h.migrate("/s.dat")
    FaultManager(h.fs)
    scrub = h.persist.make_scrubber()
    return lambda: scrub.run_cycle(h.app)


def _cluster_move():
    nodes = [ClusterNode(i, replicate=True) for i in range(2)]
    router = ClusterRouter(nodes, seed=0, stripe_bytes=MB)
    router.write_path(Actor("client"), "/m.bin", _payload(9, MB))
    (key, src), = router.placement.items()
    nodes[src].migrate_object(nodes[src].actor, key)
    backend = NodeBackend(nodes[src])
    backend.flush(nodes[src].actor)
    backend.drop_caches(nodes[src].actor)
    op = Actor("operator")
    op.sleep_until(router.makespan())
    # The source read demand-fetches; the destination re-migrates and
    # its flush writes the segment out.
    return lambda: MigrationCoordinator(router)._move(op, key, src, 1 - src)


def _demand_fetch():
    bed, _fm, _ = _bed()
    return lambda: _read_all(bed)


def _pumped_writeout():
    bed = HLBed(config=HighLightConfig(sched_mode=MODE_SCHEDULED))
    FaultManager(bed.fs)
    bed.fs.write_path("/w.dat", _payload(5, MB))
    bed.fs.checkpoint()
    bed.app.sleep(60)
    bed.migrator.migrate_file("/w.dat", bed.app)
    bed.migrator.flush(bed.app)
    assert bed.fs.sched.queued(CLASS_WRITEOUT)
    return lambda: bed.fs.sched.pump(bed.app)


@pytest.mark.parametrize("setup, expected", [
    (_repair_sweep, "repair"), (_scrub_cycle, "repair"),
    (_cluster_move, "repair"), (_demand_fetch, "demand"),
    (_pumped_writeout, "writeout")])
def test_every_footprint_call_runs_under_the_named_class(
        setup, expected, monkeypatch):
    """Repair, scrub and cross-shard moves enter ``repair``, which wins
    over the facade class (demand fetch, write-out) of anything nested
    under them; plain traffic keeps its facade class."""
    work = setup()
    classes = []
    run = RetryPolicy.run

    def recording(self, actor, rclass, op, **kwargs):
        classes.append(rclass)
        return run(self, actor, rclass, op, **kwargs)

    served = []
    account = JukeboxFootprint._account

    def counting(op, nbytes, seconds):
        served.append(op)
        account(op, nbytes, seconds)

    monkeypatch.setattr(RetryPolicy, "run", recording)
    monkeypatch.setattr(JukeboxFootprint, "_account", staticmethod(counting))
    work()
    # No faults fire, so each served Footprint call is one policy run.
    assert classes and len(classes) == len(served)
    assert set(classes) == {expected}


# ---------------------------------------------------------------------------
# Device-level failure behaviour, with no recovery stack installed
# ---------------------------------------------------------------------------

class TestMediaFailure:
    def _migrated_bed(self, **kwargs):
        bed = HLBed(n_platters=6, platter_bytes=8 * MB, **kwargs)
        payload = os.urandom(MB)
        bed.fs.write_path("/precious", payload)
        bed.fs.checkpoint()
        bed.app.sleep(60)
        return bed, payload

    def test_failed_volume_raises(self):
        bed, payload = self._migrated_bed()
        bed.migrator.migrate_file("/precious")
        bed.migrator.flush()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        bed.jukebox.volumes[0].health = VolumeHealth.QUARANTINED
        with pytest.raises(MediaFailure):
            bed.fs.read_path("/precious")

    def test_replica_survives_primary_failure(self):
        bed, payload = self._migrated_bed()
        manager = ReplicaManager(bed.fs, copies=1)
        bed.migrator.migrate_file("/precious")
        bed.migrator.flush()
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(drop_inodes=True)
        # The primary volume dies; the replica (on another volume) serves.
        bed.jukebox.volumes[0].health = VolumeHealth.QUARANTINED
        assert bed.fs.read_path("/precious") == payload
        assert manager.replica_reads >= 1

    def test_cached_data_immune_to_media_failure(self):
        bed, payload = self._migrated_bed()
        bed.migrator.migrate_file("/precious")
        bed.migrator.flush()
        # Lines still cached: the tertiary copy is never touched.
        bed.jukebox.volumes[0].health = VolumeHealth.QUARANTINED
        assert bed.fs.read_path("/precious") == payload


class TestBusHogging:
    def test_volume_swap_stalls_concurrent_disk_io(self):
        """The non-disconnecting autochanger hogs the SCSI bus during a
        media swap (paper §7): disk I/O issued meanwhile must wait."""
        bus = SCSIBus()
        disk = profiles.make_disk(profiles.RZ57, bus=bus,
                                  capacity_bytes=32 * MB)
        jukebox = profiles.make_hp6300(n_platters=4, bus=bus)
        swapper = Actor("swapper")
        reader = Actor("reader")
        disk.read(reader, 0, 1)  # position the arm; bus mostly free
        jukebox.load(swapper, 0)  # 13.5 s bus hog starts at ~t0
        t0 = reader.time
        disk.read(reader, 1, 16)
        stalled = reader.time - t0
        assert stalled > 10.0, (
            f"disk read should stall behind the bus-hogging swap, "
            f"took only {stalled:.2f}s")

    def test_disconnecting_changer_does_not_stall(self):
        bus = SCSIBus()
        disk = profiles.make_disk(profiles.RZ57, bus=bus,
                                  capacity_bytes=32 * MB)
        jukebox = profiles.make_hp6300(n_platters=4, bus=bus,
                                       hog_bus_on_swap=False)
        swapper = Actor("swapper")
        reader = Actor("reader")
        disk.read(reader, 0, 1)
        jukebox.load(swapper, 0)
        t0 = reader.time
        disk.read(reader, 1, 16)
        assert reader.time - t0 < 1.0


class TestAlternateJukeboxes:
    def test_highlight_over_metrum_tape(self):
        """HighLight is device-agnostic through Footprint: the same code
        drives the Metrum tape robot (§6.5)."""
        bus = SCSIBus()
        disk = profiles.make_disk(profiles.RZ57, bus=bus,
                                  capacity_bytes=96 * MB)
        metrum = profiles.make_metrum(n_cartridges=3, bus=bus,
                                      effective_cartridge_bytes=64 * MB)
        fp = JukeboxFootprint(metrum)
        app = Actor("app")
        fs = HighLightFS.mkfs_highlight(disk, fp, actor=app)
        migrator = Migrator(fs)
        payload = os.urandom(MB)
        fs.write_path("/tape-bound", payload)
        fs.checkpoint()
        app.sleep(60)
        migrator.migrate_file("/tape-bound")
        migrator.flush()
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        assert fs.read_path("/tape-bound") == payload
        drive = metrum.drives[metrum.drive_holding(
            fs.tsegfile.volumes[0].volume_id)]
        assert obs.metrics().get("device_io_bytes_total", device=drive.name,
                                 op="write") >= MB

    def test_worm_jukebox_rejects_overwrite_of_segment(self):
        """Sony WORM platters: a tertiary segment can be written once;
        rewriting the same physical location must fail."""
        worm = profiles.make_sony_worm(n_platters=2, n_drives=1)
        fp = JukeboxFootprint(worm)
        app = Actor("app")
        fp.write(app, 0, 0, bytes(4096))
        with pytest.raises(ReadOnlyMedium):
            fp.write(app, 0, 0, bytes(4096))

    def test_highlight_over_worm(self):
        """Plan 9-style: a WORM back end works as long as nothing cleans
        or rewrites tertiary segments (§8.2)."""
        bus = SCSIBus()
        disk = profiles.make_disk(profiles.RZ57, bus=bus,
                                  capacity_bytes=96 * MB)
        worm = profiles.make_sony_worm(n_platters=2, bus=bus,
                                       platter_bytes=64 * MB)
        fp = JukeboxFootprint(worm)
        app = Actor("app")
        fs = HighLightFS.mkfs_highlight(disk, fp, actor=app)
        migrator = Migrator(fs)
        payload = os.urandom(600 * KB)
        fs.write_path("/write-once", payload)
        fs.checkpoint()
        app.sleep(60)
        migrator.migrate_file("/write-once")
        migrator.flush()
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        assert fs.read_path("/write-once") == payload


# ---------------------------------------------------------------------------
# The curated top-level API (satellite: repro/__init__ re-exports)
# ---------------------------------------------------------------------------

class TestPublicAPI:
    def test_reexports_resolve_to_the_real_classes(self):
        from repro.core.highlight import HighLightFS
        from repro.faults.plan import FaultPlan as DeepFaultPlan
        assert repro.HighLightFS is HighLightFS
        assert repro.FaultPlan is DeepFaultPlan
        assert repro.ReplicaManager is ReplicaManager

    def test_all_is_curated_and_sorted_first(self):
        for name in ("HighLightFS", "HighLightConfig", "Migrator",
                     "STPPolicy", "FaultPlan", "RetryPolicy",
                     "VolumeHealth", "FaultManager"):
            assert name in repro.__all__
        assert "faults" in repro.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.NoSuchExport
