"""Tests for the tertiary request scheduler (repro.sched).

The queue-mechanics properties — priority within a mount batch, aging,
admission limits, pass-through FIFO — run against a stub back end so
hypothesis can hammer them cheaply; the integration tests drive a real
HighLight bed in ``scheduled`` mode and check the end-to-end contracts
(write-outs queue and drain, prefetches route through the queue, every
dispatch's time partitions into the Table 4 categories).
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.scenarios import run_contention
from repro.core.highlight import HighLightConfig
from repro.errors import AccountingViolation
from repro.sched import (CLASS_CLEANER, CLASS_DEMAND, CLASS_PREFETCH,
                         CLASS_WRITEOUT, MODE_PASSTHROUGH, MODE_SCHEDULED,
                         PRIORITY, REQUEST_CLASSES, TertiaryScheduler)
from repro.sched.scheduler import INFLIGHT_LIMITS
from repro.sim.actor import Actor, TimeAccount
from repro.util.units import MB
from tests.conftest import HLBed

BACKGROUND = [CLASS_PREFETCH, CLASS_WRITEOUT, CLASS_CLEANER]


def make_sched(mode=MODE_SCHEDULED, **kwargs):
    """A scheduler over a stub back end (queue mechanics only)."""
    ioserver = SimpleNamespace(account=TimeAccount())
    return TertiaryScheduler(None, ioserver, mode=mode, **kwargs)


def scheduled_bed(**knobs):
    return HLBed(config=HighLightConfig(sched_mode=MODE_SCHEDULED, **knobs))


# ---------------------------------------------------------------------------
# Property 1: within one volume batch, strict class priority (then FIFO
# within a class) decides the dispatch order.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(BACKGROUND), min_size=1, max_size=20))
def test_priority_order_within_volume_batch(classes):
    sched = make_sched(queue_limits={c: 100 for c in BACKGROUND})
    app = Actor("app")
    order = []
    for i, rclass in enumerate(classes):
        assert sched.submit(rclass, app,
                            lambda a, k=(rclass, i): order.append(k),
                            volume=7, tag=i)
    assert sched.pump(app) == len(classes)
    expected = sorted(((r, i) for i, r in enumerate(classes)),
                      key=lambda k: (PRIORITY[k[0]], k[1]))
    assert order == expected
    assert sched.queued() == 0
    assert sched.volume_switches == 1  # unmounted -> volume 7, once


# ---------------------------------------------------------------------------
# Property 2: aging promotes a starved background request past both the
# class priorities and the mounted-volume batch.
# ---------------------------------------------------------------------------

def test_aging_promotes_starved_cleaner_request():
    sched = make_sched(aging_threshold=100.0)
    app = Actor("app")
    order = []
    sched.submit(CLASS_CLEANER, app, lambda a: order.append("old-cleaner"),
                 volume=2, tag="old")
    app.sleep(150.0)  # starve it past the threshold
    sched.submit(CLASS_PREFETCH, app, lambda a: order.append("prefetch"),
                 volume=1, tag="fresh")
    sched.current_volume = 1  # the drive sits on the prefetch's volume
    sched.pump(app, limit=1)
    assert order == ["old-cleaner"]
    assert sched.aged_promotions == 1
    assert sched.current_volume == 2  # promotion dragged the batch along


def test_without_aging_the_batch_and_priority_win():
    # Control for the test above: same queue, threshold out of reach.
    sched = make_sched(aging_threshold=1e9)
    app = Actor("app")
    order = []
    sched.submit(CLASS_CLEANER, app, lambda a: order.append("cleaner"),
                 volume=2)
    app.sleep(150.0)
    sched.submit(CLASS_PREFETCH, app, lambda a: order.append("prefetch"),
                 volume=1)
    sched.current_volume = 1
    sched.pump(app, limit=1)
    assert order == ["prefetch"]
    assert sched.aged_promotions == 0


# ---------------------------------------------------------------------------
# Property 3: admission control — queue depths never exceed their limits,
# and every submission is either accepted or counted as rejected.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(BACKGROUND + ["pump"]),
                          st.integers(0, 3)),
                max_size=40))
def test_admission_limits_never_exceeded(ops):
    limits = {CLASS_PREFETCH: 2, CLASS_WRITEOUT: 3, CLASS_CLEANER: 1}
    sched = make_sched(queue_limits=limits)
    app = Actor("app")
    attempts = {c: 0 for c in BACKGROUND}
    accepted = {c: 0 for c in BACKGROUND}
    for op, vol in ops:
        if op == "pump":
            sched.pump(app, limit=1)
        else:
            attempts[op] += 1
            if sched.submit(op, app, lambda a: None, volume=vol):
                accepted[op] += 1
        for c in BACKGROUND:
            assert sched.queued(c) <= limits[c]
    for c in BACKGROUND:
        assert accepted[c] + sched.admission_rejects[c] == attempts[c]
        assert sched.queued(c) <= limits[c]


def test_writeout_overflow_force_drains_instead_of_dropping():
    """A staged segment may never be dropped: overflowing the write-out
    queue drains the oldest pending write-out synchronously."""
    written = []
    volumes = {v: SimpleNamespace(volume_id=v) for v in (0, 1)}
    fs = SimpleNamespace(
        cache=SimpleNamespace(is_staging=lambda t: True),
        service=SimpleNamespace(
            writeout_line=lambda actor, t: written.append(t)),
        aspace=SimpleNamespace(volume_of=lambda t: (t % 2, 0)),
        tsegfile=SimpleNamespace(volumes=volumes),
    )
    sched = TertiaryScheduler(fs, SimpleNamespace(account=TimeAccount()),
                              mode=MODE_SCHEDULED,
                              queue_limits={CLASS_WRITEOUT: 2})
    app = Actor("app")
    for tsegno in range(5):
        assert sched.submit_writeout(app, tsegno) is True
        assert sched.queued(CLASS_WRITEOUT) <= 2
    assert sched.forced_writeouts == 3
    assert written == [0, 1, 2]  # oldest first
    sched.pump(app)
    assert sorted(written) == [0, 1, 2, 3, 4]  # nothing lost


# ---------------------------------------------------------------------------
# Property 4: pass-through mode is a strict FIFO that adds nothing —
# every class executes inline, in submission order, at zero virtual cost.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(REQUEST_CLASSES), max_size=20))
def test_passthrough_preserves_fifo_order(classes):
    sched = make_sched(mode=MODE_PASSTHROUGH)
    app = Actor("app")
    order = []
    for i, rclass in enumerate(classes):
        assert sched.submit(rclass, app, lambda a, i=i: order.append(i))
    assert order == list(range(len(classes)))
    assert sched.queued() == 0
    assert sched.dispatch_log == []
    assert app.time == 0.0  # zero added virtual time
    assert sched.ioserver.account.total() == 0.0


# ---------------------------------------------------------------------------
# Queue mechanics: elevator batching, batch residency, demand immediacy,
# and the strict per-dispatch accounting guard.
# ---------------------------------------------------------------------------

def test_elevator_coalesces_per_volume_batches():
    sched = make_sched(queue_limits={CLASS_CLEANER: 100})
    app = Actor("app")
    order = []
    for i, vol in enumerate([1, 2, 1, 2, 1, 2]):
        sched.submit(CLASS_CLEANER, app,
                     lambda a, k=(vol, i): order.append(k), volume=vol)
    sched.pump(app)
    assert order == [(1, 0), (1, 2), (1, 4), (2, 1), (2, 3), (2, 5)]
    assert sched.volume_switches == 2  # unmounted -> 1 -> 2


def test_batch_residency_bounds_same_volume_streaks():
    sched = make_sched(max_batch_residency=2,
                       queue_limits={CLASS_CLEANER: 100})
    app = Actor("app")
    order = []
    for tag, vol in [("a", 1), ("b", 1), ("c", 1), ("d", 2)]:
        sched.submit(CLASS_CLEANER, app,
                     lambda a, t=tag: order.append(t), volume=vol, tag=tag)
    sched.pump(app)
    # Two volume-1 dispatches, then the residency bound forces the
    # elevator onward to volume 2 before finishing volume 1.
    assert order == ["a", "b", "d", "c"]


def test_demand_class_never_queues_even_when_scheduled():
    sched = make_sched()
    app = Actor("app")
    ran = []
    assert sched.submit(CLASS_DEMAND, app, lambda a: ran.append("demand"))
    assert ran == ["demand"]
    assert sched.queued() == 0


def test_unknown_class_and_mode_are_rejected():
    with pytest.raises(ValueError):
        make_sched(mode="clairvoyant")
    sched = make_sched()
    with pytest.raises(ValueError):
        sched.submit("bulk", Actor("app"), lambda a: None)


def test_writeout_queue_limit_below_one_is_rejected():
    """A write-out is never rejected, so a full write-out queue drains
    its oldest entry; a limit of 0 leaves nothing to drain."""
    with pytest.raises(ValueError):
        make_sched(queue_limits={CLASS_WRITEOUT: 0})
    with pytest.raises(ValueError):
        scheduled_bed(sched_writeout_queue_limit=0)


def test_strict_accounting_flags_uncharged_service_time():
    """A table4 request that burns virtual time without charging a
    Table 4 category violates the partition and must be loud about it."""
    sched = make_sched()
    app = Actor("app")
    sched.submit(CLASS_CLEANER, app, lambda a: a.sleep(1.0),
                 volume=1, tag="leaky", table4=True)
    with pytest.raises(AccountingViolation):
        sched.pump(app)


def test_dispatch_records_wait_and_charges_queuing():
    from repro.sched.scheduler import CAT_QUEUING
    sched = make_sched()
    app = Actor("app")
    sched.submit(CLASS_CLEANER, app, lambda a: None, volume=1, tag="t",
                 table4=True)
    app.sleep(5.0)
    sched.pump(app)
    (rec,) = sched.dispatch_log
    assert rec.wait == pytest.approx(5.0)
    assert rec.service == pytest.approx(0.0)
    assert rec.charged == pytest.approx(5.0)
    assert sched.ioserver.account.get(CAT_QUEUING) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Integration: a real HighLight bed in scheduled mode.
# ---------------------------------------------------------------------------

class TestScheduledModeIntegration:
    def _migrated_bed(self):
        bed = scheduled_bed()
        fs, app = bed.fs, bed.app
        payload = (b"HighLight sched " * 64)[:1024] * (2 * MB // 1024)
        fs.mkdir("/d")
        fs.write_path("/d/f.bin", payload)
        fs.checkpoint()
        app.sleep(3600)
        bed.migrator.migrate_file("/d/f.bin", app, unit_tag="f")
        bed.migrator.flush(app)
        return bed, payload

    def test_writeouts_queue_until_pumped(self):
        bed, payload = self._migrated_bed()
        fs, app = bed.fs, bed.app
        sched = fs.sched
        assert sched.queued(CLASS_WRITEOUT) > 0
        before = fs.ioserver.segments_written
        pumped = sched.pump(app)
        assert pumped == len(sched.dispatch_log) > 0
        assert fs.ioserver.segments_written > before
        assert sched.queued(CLASS_WRITEOUT) == 0
        # Every dispatch's wait+service partitioned into Table 4
        # categories (strict accounting did not raise), and the
        # in-flight limits were honored throughout.
        for rec in sched.dispatch_log:
            assert abs(rec.charged - (rec.wait + rec.service)) <= 1e-6
        for rclass, peak in sched.max_in_flight.items():
            limit = INFLIGHT_LIMITS.get(rclass)
            assert limit is None or peak <= limit
        # The data actually reached tertiary storage and comes back.
        fs.checkpoint()
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        assert fs.read_path("/d/f.bin") == payload
        assert fs.stats.demand_fetches > 0

    def test_queued_writeout_lines_stay_staging(self):
        """The §5.4 delayed write-out: a queued segment stays pinned in
        its staging line until the idle-period drain copies it out."""
        bed, _payload = self._migrated_bed()
        fs, app = bed.fs, bed.app
        queued = [tag for _rclass, tag, _vol, _t
                  in fs.sched.queued_descriptors()]
        assert queued and fs.ioserver.segments_written == 0
        assert all(fs.cache.is_staging(t) for t in queued)
        fs.sched.pump(app)
        assert not any(fs.cache.is_staging(t) for t in queued)

    def test_prefetch_routes_through_scheduler_queue(self):
        bed, _payload = self._migrated_bed()
        fs, app = bed.fs, bed.app
        sched = fs.sched
        sched.pump(app)
        fs.checkpoint()
        fs.service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        tsegs = sorted(t for t, unit in bed.migrator.hint_table.items()
                       if unit == "f")
        target = tsegs[0]
        assert not fs.cache.contains(target)
        assert sched.submit_prefetch(app, target) is True
        assert sched.queued(CLASS_PREFETCH) == 1
        assert not fs.cache.contains(target)  # queued, not inline
        sched.pump(app)
        assert fs.cache.contains(target)

    def test_config_knobs_reach_the_scheduler(self):
        bed = scheduled_bed(sched_aging_threshold=42.0,
                            sched_batch_residency=2,
                            sched_prefetch_queue_limit=3,
                            sched_writeout_queue_limit=4,
                            sched_cleaner_queue_limit=5)
        sched = bed.fs.sched
        assert sched.mode == MODE_SCHEDULED
        assert sched.aging_threshold == 42.0
        assert sched.max_batch_residency == 2
        assert sched.queue_limits[CLASS_PREFETCH] == 3
        assert sched.queue_limits[CLASS_WRITEOUT] == 4
        assert sched.queue_limits[CLASS_CLEANER] == 5

    def test_passthrough_is_the_default(self, hl):
        assert hl.fs.sched.mode == MODE_PASSTHROUGH


def test_contention_scenario_favours_the_scheduler():
    """The facts the contention report prints: with the scheduler on,
    demand fetches wait less behind background work and the robot swaps
    media half as often."""
    data, report = run_contention(quick=True)
    off, on = data[MODE_PASSTHROUGH], data[MODE_SCHEDULED]
    assert on["mean_demand_seconds"] < off["mean_demand_seconds"]
    assert on["mount_switches"] < off["mount_switches"]
    assert (on["mount_switches"], off["mount_switches"]) == (8, 16)
    assert "8 fewer mount switches" in report
