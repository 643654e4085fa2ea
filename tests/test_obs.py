"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro import obs
from repro.sched.scheduler import TABLE4_CATEGORIES
from repro.obs.registry import (DEFAULT_BUCKETS, MetricError,
                                MetricsRegistry)
from repro.obs.report import snapshot, write_snapshot
from repro.obs.trace import (EVENT_TYPES, TraceError, TraceEvent,
                             TraceRecorder, register_event_type)
from repro.sim.actor import Actor
from repro.util.units import MB


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total")
        assert reg.get("ops_total") == 0.0
        c.inc()
        c.inc(2.5)
        assert reg.get("ops_total") == 3.5

    def test_negative_increment_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("ops_total").inc(-1)

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("ops_total")
        c.inc()
        c.inc(100)
        assert reg.get("ops_total") == 0.0

    def test_disable_then_enable(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total")
        c.inc()
        reg.disable()
        c.inc()
        reg.enable()
        c.inc()
        assert reg.get("ops_total") == 2.0


class TestGauge:
    def test_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.set(4)
        assert reg.get("depth") == 4.0

    def test_disabled_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        g = reg.gauge("depth")
        g.set(5)
        assert reg.get("depth") == 0.0


class TestHistogram:
    def test_observe_buckets_and_sum(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            fam.observe(v)
        h = fam.labels()
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.counts == [1, 1, 1, 1]  # one per bucket + one +Inf
        assert h.cumulative() == {"0.1": 1, "1.0": 2, "10.0": 3, "+Inf": 4}

    def test_boundary_is_inclusive(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat", buckets=(1.0, 2.0))
        fam.observe(1.0)
        assert fam.labels().counts[0] == 1

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_registry_get_returns_sum(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat")
        fam.observe(1.5)
        fam.observe(2.5)
        assert reg.get("lat") == 4.0


class TestLabels:
    def test_series_are_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("io_total", labelnames=("device", "op"))
        fam.labels(device="rz57", op="read").inc(3)
        fam.labels(device="rz57", op="write").inc(5)
        assert reg.get("io_total", device="rz57", op="read") == 3.0
        assert reg.get("io_total", device="rz57", op="write") == 5.0

    def test_children_are_memoised(self):
        reg = MetricsRegistry()
        fam = reg.counter("io_total", labelnames=("op",))
        assert fam.labels(op="read") is fam.labels(op="read")

    def test_wrong_label_set_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("io_total", labelnames=("device", "op"))
        with pytest.raises(MetricError):
            fam.labels(device="rz57")
        with pytest.raises(MetricError):
            fam.labels(device="rz57", op="read", extra="x")

    def test_labelless_shortcut_rejected_on_labelled_family(self):
        reg = MetricsRegistry()
        fam = reg.counter("io_total", labelnames=("op",))
        with pytest.raises(MetricError):
            fam.inc()

    def test_cardinality_cap(self):
        reg = MetricsRegistry()
        fam = reg.counter("hot", labelnames=("key",), max_series=4)
        for i in range(4):
            fam.labels(key=i).inc()
        with pytest.raises(MetricError):
            fam.labels(key="one-too-many")

    def test_get_without_required_labels_raises(self):
        reg = MetricsRegistry()
        reg.counter("io_total", labelnames=("op",)).labels(op="read").inc()
        with pytest.raises(MetricError):
            reg.get("io_total")


class TestRegistry:
    def test_accessors_are_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(MetricError):
            reg.gauge("a")

    def test_label_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a", labelnames=("x",))
        with pytest.raises(MetricError):
            reg.counter("a", labelnames=("y",))

    def test_get_absent_metric_is_zero(self):
        assert MetricsRegistry().get("nope") == 0.0

    def test_snapshot_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc(2)
        reg.counter("a_total").inc(1)
        reg.gauge("depth").set(7)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a_total", "b_total"]
        assert snap["gauges"]["depth"] == 7.0
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_series_key_includes_labels(self):
        reg = MetricsRegistry()
        reg.counter("io", labelnames=("device", "op")).labels(
            device="rz57", op="read").inc()
        assert "io{device=rz57,op=read}" in reg.snapshot()["counters"]

    def test_reset_zeroes_but_keeps_families(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.reset()
        assert reg.get("a") == 0.0
        reg.counter("a").inc()  # same family still usable
        assert reg.get("a") == 1.0

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(0.2)
        json.dumps(reg.snapshot())


# ---------------------------------------------------------------------------
# Bound series: a call site resolves a child once and keeps it
# ---------------------------------------------------------------------------

def _drive(record):
    """One fixed sequence of records, through whatever ``record`` does
    with (kind, name, labelnames, labels, method, value)."""
    for args in (
            ("counter", "io_total", ("device", "op"),
             {"device": "rz57", "op": "read"}, "inc", 3.0),
            ("counter", "io_total", ("device", "op"),
             {"device": "rz57", "op": "write"}, "inc", 0),   # inc(0) shows
            ("counter", "hits_total", (), {}, "inc", 1.0),
            ("gauge", "depth", ("q",), {"q": "demand"}, "set", 4),
            ("gauge", "depth", ("q",), {"q": "demand"}, "set", 6.0),
            ("histogram", "lat", ("op",), {"op": "read"}, "observe", 0.02),
            ("histogram", "lat", ("op",), {"op": "read"}, "observe", 400.0),
            ("counter", "io_total", ("device", "op"),
             {"device": "rz57", "op": "read"}, "inc", 1.0)):
        record(*args)


class TestBoundSeries:
    def test_child_bound_before_reset_records_into_live_registry(self):
        reg = MetricsRegistry()
        child = reg.counter("io_total", labelnames=("op",)).labels(op="read")
        child.inc(5)
        reg.reset()
        assert reg.get("io_total", op="read") == 0.0
        assert reg.snapshot()["counters"] == {}
        child.inc(2)
        assert reg.get("io_total", op="read") == 2.0
        assert reg.snapshot()["counters"] == {"io_total{op=read}": 2.0}
        # ...and it is still the object a by-name lookup finds.
        assert reg.counter("io_total").labels(op="read") is child

    def test_gauge_and_histogram_start_over_after_reset(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth").labels()
        hist = reg.histogram("lat", buckets=(1.0,)).labels()
        gauge.set(7)
        hist.observe(0.5)
        hist.observe(5.0)
        reg.reset()
        gauge.set(1)
        hist.observe(0.25)
        snap = reg.snapshot()
        assert snap["gauges"] == {"depth": 1.0}
        assert snap["histograms"]["lat"] == {
            "count": 1, "sum": 0.25, "buckets": {"1.0": 1, "+Inf": 1}}

    def test_series_appears_at_first_record_not_at_bind(self):
        reg = MetricsRegistry()
        fam = reg.counter("io_total", labelnames=("op",))
        bound = fam.labels(op="read")
        assert reg.snapshot()["counters"] == {}
        assert fam.series() == []
        assert reg.counter_samples(("io_",)) == []
        bound.inc(0)
        assert reg.snapshot()["counters"] == {"io_total{op=read}": 0.0}

    def test_disable_enable_keeps_bound_child_live(self):
        child = obs.counter("bound_total", "x", ("op",)).labels(op="read")
        obs.disable()
        try:
            child.inc(100)
        finally:
            obs.enable()
        assert "bound_total{op=read}" not in \
            obs.metrics().snapshot()["counters"]
        child.inc()
        assert obs.metrics().get("bound_total", op="read") == 1.0

    def test_checkpoint_round_trip_lands_on_bound_child(self):
        reg = obs.metrics()
        child = obs.counter("ioserver_bound_total", "x",
                            ("op",)).labels(op="fetch")
        child.inc(3)
        rows = json.loads(json.dumps(reg.counter_samples(("ioserver_",))))
        assert rows == [["ioserver_bound_total", ["op"], ["fetch"], 3.0]]
        obs.reset()                       # the crash: counters gone
        for row in rows:
            reg.restore_counter_sample(*row)
        assert reg.get("ioserver_bound_total", op="fetch") == 3.0
        child.inc()                       # the survivor keeps counting
        assert reg.get("ioserver_bound_total", op="fetch") == 4.0
        assert reg.counter_samples(("ioserver_",))[0][3] == 4.0

    def test_snapshot_bytes_equal_the_by_name_path(self):
        by_name, bound = MetricsRegistry(), MetricsRegistry()

        def record_by_name(kind, name, labelnames, labels, method, value):
            fam = getattr(by_name, kind)(name, "", labelnames)
            getattr(fam.labels(**labels), method)(value)

        held = {}

        def record_bound(kind, name, labelnames, labels, method, value):
            key = (name, tuple(sorted(labels.items())))
            if key not in held:
                fam = getattr(bound, kind)(name, "", labelnames)
                held[key] = fam.labels(**labels)        
            getattr(held[key], method)(value)

        # Bound but never recorded: must not appear.
        bound.counter("never_total", "", ("op",)).labels(op="x")
        bound.histogram("never_lat").labels()
        for registry, record in ((by_name, record_by_name),
                                 (bound, record_bound)):
            _drive(record)       # an earlier run, wiped by the reset...
            registry.reset()
            _drive(record)       # ...then the same records again
        dumps = [json.dumps(r.snapshot(), sort_keys=True)
                 for r in (by_name, bound)]
        assert dumps[0] == dumps[1]
        assert "never" not in dumps[1]
        assert '"io_total{device=rz57,op=write}": 0' in dumps[1]

    def test_series_cap_counts_live_series_only(self):
        reg = MetricsRegistry()
        fam = reg.counter("hot", labelnames=("key",), max_series=4)
        for run in range(3):              # 12 label values over 3 runs
            for i in range(4):
                fam.labels(key=f"{run}-{i}").inc()
            with pytest.raises(MetricError):
                fam.labels(key="one-too-many")
            reg.reset()
        # Binding without recording grows the set just the same.
        for i in range(4):
            fam.labels(key=f"bound-{i}")
        with pytest.raises(MetricError):
            fam.labels(key="one-too-many")
        # A child of an earlier run is still usable once there is room.
        reg.reset()
        fam.labels(key="0-0").inc()
        assert reg.get("hot", key="0-0") == 1.0

    def test_histogram_bucket_is_first_bound_at_or_above_value(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat").labels()
        for value in (0.0, 0.001, 0.0011, 0.05, 59.9, 300.0, 300.1, 1e9):
            before = list(hist.counts)
            hist.observe(value)
            want = next((i for i, bound in enumerate(DEFAULT_BUCKETS)
                         if value <= bound), len(DEFAULT_BUCKETS))
            moved = [i for i, (a, b) in enumerate(zip(before, hist.counts))
                     if a != b]
            assert moved == [want], value


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------

class TestTrace:
    def test_emit_and_read_back(self):
        tr = TraceRecorder()
        ev = tr.emit(obs.EV_CACHE_EJECT, 12.5, tsegno=7)
        assert tr.count() == 1
        assert ev.etype == obs.EV_CACHE_EJECT
        assert ev.t == 12.5
        assert ev.fields == {"tsegno": 7}

    def test_unknown_event_type_raises(self):
        with pytest.raises(TraceError):
            TraceRecorder().emit("made_up_event", 0.0)

    def test_unknown_event_type_raises_with_tracing_disabled(self):
        # The taxonomy check runs before the enabled flag: a misspelled
        # type fails on any executed site, not only on traced runs.
        with pytest.raises(TraceError):
            TraceRecorder(enabled=False).emit("made_up_event", 0.0)

    def test_register_event_type_extends_taxonomy(self):
        name = register_event_type("test_custom_event")
        try:
            assert TraceRecorder().emit(name, 1.0) is not None
        finally:
            EVENT_TYPES.discard(name)

    def test_register_event_type_is_idempotent(self):
        name = register_event_type("test_idem_event")
        try:
            assert register_event_type("test_idem_event") == name
            # Re-registering a base type is a no-op, not an error.
            assert register_event_type("segment_fetch") == "segment_fetch"
            assert obs.BASE_EVENT_TYPES <= EVENT_TYPES
        finally:
            EVENT_TYPES.discard(name)

    def test_register_event_type_validates_names(self):
        with pytest.raises(TraceError):
            register_event_type("Not-Snake-Case")
        with pytest.raises(TraceError):
            register_event_type("")

    def test_disabled_returns_none_and_records_nothing(self):
        tr = TraceRecorder(enabled=False)
        assert tr.emit(obs.EV_CLEAN_PASS, 0.0) is None
        assert tr.count() == 0
        assert tr.emitted == 0

    def test_ring_buffer_bounds_and_drop_accounting(self):
        tr = TraceRecorder(capacity=3)
        for i in range(5):
            tr.emit(obs.EV_CACHE_EJECT, float(i), i=i)
        assert tr.count() == 3
        assert tr.emitted == 5
        assert tr.dropped == 2
        assert [e.fields["i"] for e in tr.events()] == [2, 3, 4]

    def test_bad_capacity_raises(self):
        with pytest.raises(TraceError):
            TraceRecorder(capacity=0)

    def test_filtering_and_counts(self):
        tr = TraceRecorder()
        tr.emit(obs.EV_SEGMENT_FETCH, 1.0)
        tr.emit(obs.EV_CACHE_EJECT, 2.0)
        tr.emit(obs.EV_SEGMENT_FETCH, 3.0)
        assert tr.count(obs.EV_SEGMENT_FETCH) == 2
        assert [e.t for e in tr.events(obs.EV_SEGMENT_FETCH)] == [1.0, 3.0]
        assert tr.counts_by_type() == {obs.EV_CACHE_EJECT: 1,
                                       obs.EV_SEGMENT_FETCH: 2}

    def test_jsonl_round_trip_is_lossless(self):
        tr = TraceRecorder()
        tr.emit(obs.EV_SEGMENT_FETCH, 1.0625, tsegno=4, bytes=1048576,
                actor="app")
        tr.emit(obs.EV_VOLUME_SWITCH, 13.5, volume="platter-00")
        text = "\n".join(json.dumps(d, sort_keys=True) for d in tr.to_list())
        replayed = [TraceEvent(d["type"], d["t"], d["fields"])
                    for d in map(json.loads, text.splitlines())]
        assert replayed == tr.events()

    def test_clear(self):
        tr = TraceRecorder()
        tr.emit(obs.EV_CLEAN_PASS, 0.0)
        tr.clear()
        assert tr.count() == 0 and tr.emitted == 0 and tr.dropped == 0

    def test_virtual_clock_stamp(self):
        actor = Actor("worker")
        actor.sleep(42.25)
        tr = TraceRecorder()
        ev = tr.emit(obs.EV_SEGMENT_WRITEOUT, actor.time, actor=actor.name)
        assert ev.t == 42.25

    @pytest.mark.parametrize("fields", [
        {},
        {"kind": "media"},
        {"tenant": "default", "op": "read", "nbytes": 4096, "wait": 0.0,
         "service": 0.0112, "actor": "app"},
    ], ids=["zero", "one", "many"])
    def test_event_equality_and_dict_round_trip(self, fields):
        ev = TraceEvent(obs.EV_VOLUME_SWITCH, 3.0, dict(fields))
        assert ev.to_dict() == {"type": "volume_switch", "t": 3.0,
                                "fields": fields}
        d = ev.to_dict()
        assert TraceEvent(d["type"], d["t"], d["fields"]) == ev
        assert ev != TraceEvent(obs.EV_VOLUME_SWITCH, 3.0, {"other": 1})
        # The ring stores events compactly; what it hands back is equal
        # to what emit() returned, and exports byte for byte the same.
        tr = TraceRecorder()
        emitted = tr.emit(ev.etype, ev.t, **fields)
        assert emitted == ev and tr.events() == [ev]
        assert tr.events()[0].fields == fields
        assert tr.to_list() == [ev.to_dict()]
        assert json.dumps(tr.to_list()[0], sort_keys=True) == json.dumps(
            {"type": "volume_switch", "t": 3.0, "fields": fields},
            sort_keys=True)

    def test_ring_packs_events_of_one_shape_into_small_rows(self):
        tr = TraceRecorder()
        for i in range(3):
            tr.emit(obs.EV_CACHE_EJECT, float(i), tsegno=i, reason="lru")
        tr.emit(obs.EV_CACHE_EJECT, 9.0, reason="lru", tsegno=9)
        rows = list(tr._events)
        assert all(type(row) is bytes for row in rows)
        assert rows[0][:2] == rows[1][:2] == rows[2][:2] != rows[3][:2]
        assert len(rows[0]) == 2 + 8 + 8 + 4   # shape, t, tsegno, reason
        assert tr._strings == ["lru"]           # stored once, not per row
        assert tr.events()[3].fields == {"reason": "lru", "tsegno": 9}
        assert list(tr.events()[3].fields) == ["reason", "tsegno"]
        assert tr.count(obs.EV_CACHE_EJECT) == 4
        assert tr.counts_by_type() == {obs.EV_CACHE_EJECT: 4}

    def test_packed_rows_keep_every_value_and_its_type(self):
        tr = TraceRecorder()
        rows = [
            {"n": 1, "x": 1.0, "ok": True, "why": None, "who": "app"},
            {"n": 1.0, "x": 1, "ok": 0, "why": "", "who": None},
            {"n": -2 ** 63, "x": float("inf"), "ok": False, "why": "é",
             "who": "app"},
            {"n": 2 ** 63, "x": -0.0},             # too wide: stays a tuple
            {"n": (1, 2), "x": [3], "who": {"a": 1}},   # not packable
        ]
        for i, fields in enumerate(rows):
            tr.emit(obs.EV_VOLUME_SWITCH, float(i), **fields)
        tr.emit(obs.EV_VOLUME_SWITCH, 9.0, x=float("nan"))
        assert [type(r) for r in tr._events] == \
            [bytes, bytes, bytes, tuple, tuple, bytes]
        back = tr.events()
        for event, fields in zip(back, rows):
            assert event.fields == fields
            assert [type(v) for v in event.fields.values()] == \
                [type(v) for v in fields.values()]
        assert str(back[3].fields["x"]) == "-0.0"
        assert back[5].fields["x"] != back[5].fields["x"]   # NaN survives
        assert json.dumps(tr.to_list()[1], sort_keys=True) == json.dumps(
            {"type": "volume_switch", "t": 1.0, "fields": rows[1]},
            sort_keys=True)

    def test_string_table_is_bounded_by_the_ring_and_dies_with_clear(self):
        tr = TraceRecorder(capacity=4)
        for i in range(10):
            tr.emit(obs.EV_CACHE_EJECT, float(i), reason=f"r{i}")
        assert len(tr._strings) == 4
        assert [e.fields["reason"] for e in tr.events()] == \
            ["r6", "r7", "r8", "r9"]
        tr.clear()
        assert tr._strings == [] and tr.count() == 0
        tr.emit(obs.EV_CACHE_EJECT, 0.0, reason="again")
        assert tr.events()[0].fields == {"reason": "again"}


# ---------------------------------------------------------------------------
# Module-level helpers + report
# ---------------------------------------------------------------------------

class TestObsModule:
    def test_process_wide_helpers(self):
        obs.counter("helper_total").inc(2)
        obs.gauge("helper_depth").set(3)
        obs.histogram("helper_lat").observe(0.5)
        obs.event(obs.EV_CLEAN_PASS, 1.0, cleaned=0)
        assert obs.metrics().get("helper_total") == 2.0
        assert obs.trace().count(obs.EV_CLEAN_PASS) == 1

    def test_reset_clears_both_sinks(self):
        obs.counter("helper_total").inc()
        obs.event(obs.EV_CLEAN_PASS, 1.0)
        obs.reset()
        assert obs.metrics().get("helper_total") == 0.0
        assert obs.trace().count() == 0

    def test_disable_makes_recording_noop(self):
        obs.disable()
        try:
            obs.counter("helper_total").inc()
            assert obs.event(obs.EV_CLEAN_PASS, 0.0) is None
            assert obs.metrics().get("helper_total") == 0.0
            assert obs.trace().count() == 0
        finally:
            obs.enable()

    def test_snapshot_combines_metrics_and_trace(self):
        obs.counter("snap_total").inc()
        obs.event(obs.EV_CACHE_EJECT, 2.0, tsegno=1)
        snap = snapshot()
        assert snap["metrics"]["counters"]["snap_total"] == 1.0
        assert snap["trace"]["emitted"] == 1
        assert snap["trace"]["counts_by_type"] == {obs.EV_CACHE_EJECT: 1}
        assert snap["trace"]["events"][0]["type"] == obs.EV_CACHE_EJECT

    def test_write_snapshot_creates_dirs(self, tmp_path):
        obs.counter("written_total").inc()
        path = write_snapshot(str(tmp_path / "deep" / "nest" / "snap.json"))
        data = json.load(open(path, encoding="utf-8"))
        assert data["metrics"]["counters"]["written_total"] == 1.0


# ---------------------------------------------------------------------------
# Table 4 completeness (satellite: categories partition elapsed time)
# ---------------------------------------------------------------------------

class TestTable4Accounting:
    def test_categories_are_distinct(self):
        assert len(set(TABLE4_CATEGORIES)) == len(TABLE4_CATEGORIES)

    def test_categories_partition_elapsed_time(self, hl):
        """Every virtual second inside a write-out or demand fetch lands in
        exactly one Table-4 bucket: the account total equals the summed
        wall-clock windows of the operations, and no charge falls outside
        the declared categories."""
        fs, app = hl.fs, hl.app
        service = fs.service
        account = fs.ioserver.account

        payload = (b"HighLight Table4 " * 64)[:1024] * (2 * MB // 1024)
        fs.mkdir("/d")
        fs.write_path("/d/f.bin", payload)
        fs.checkpoint()
        app.sleep(3600)

        windows = []

        real_writeout = service.writeout_line

        def timed_writeout(actor, tsegno):
            t0 = actor.time
            real_writeout(actor, tsegno)
            windows.append(actor.time - t0)

        real_fetch = service.demand_fetch

        def timed_fetch(actor, tsegno):
            t0 = actor.time
            out = real_fetch(actor, tsegno)
            windows.append(actor.time - t0)
            return out

        service.writeout_line = timed_writeout
        service.demand_fetch = timed_fetch
        account.clear()

        hl.migrator.migrate_file("/d/f.bin")
        hl.migrator.flush()
        fs.checkpoint()
        service.flush_cache(app)
        fs.drop_caches(drop_inodes=True)
        assert fs.read_path("/d/f.bin") == payload

        assert fs.stats.demand_fetches > 0
        assert fs.ioserver.segments_written > 0
        breakdown = account.breakdown()
        assert set(breakdown) <= set(TABLE4_CATEGORIES)
        assert account.total() == pytest.approx(sum(windows), rel=1e-9)
        # Non-overlap: each bucket individually stays within the total.
        for category, seconds in breakdown.items():
            assert 0.0 <= seconds <= account.total() + 1e-12

    def test_scheduled_dispatches_partition_into_table4(self):
        """With the request scheduler on, each dispatch's wait+service
        must partition into the Table 4 categories: the wait is charged
        to ``queuing``, the back-end service to its own category, and
        the scheduler's strict per-dispatch check (which would raise
        ``AccountingViolation``) pins the two sides together."""
        from repro.core.highlight import HighLightConfig
        from tests.conftest import HLBed

        bed = HLBed(config=HighLightConfig(sched_mode="scheduled"))
        fs, app = bed.fs, bed.app
        account = fs.ioserver.account

        fs.mkdir("/d")
        fs.write_path("/d/f.bin", b"\xa5" * (2 * MB))
        fs.checkpoint()
        app.sleep(3600)
        account.clear()
        bed.migrator.migrate_file("/d/f.bin", app, unit_tag="f")
        bed.migrator.flush(app)
        app.sleep(120)  # queued write-outs accrue real wait
        pumped = fs.sched.pump(app)

        assert pumped > 0
        records = [r for r in fs.sched.dispatch_log if r.rclass ==
                   "writeout"]
        assert records
        for rec in records:
            assert rec.charged == pytest.approx(rec.wait + rec.service,
                                                abs=1e-6)
        assert any(rec.wait > 0 for rec in records)
        breakdown = account.breakdown()
        assert set(breakdown) <= set(TABLE4_CATEGORIES)
        # The account grew by exactly what the dispatches charged.
        assert account.total() == pytest.approx(
            sum(rec.charged for rec in fs.sched.dispatch_log), rel=1e-9)
