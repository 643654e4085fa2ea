"""The multi-tenant session front end: admission, fairness, lifecycle.

Covers the ISSUE-10 property checklist: token-bucket refill is a pure
function of the virtual clock, handle lifecycle errors are typed
``ReproError`` subclasses, an adversarial flooding tenant cannot push
another tenant's demand p99 past the scenario gate, and the same
workload script runs on both backends.
"""

import json

import pytest

from repro import obs
from repro.bench import harness
from repro.cluster import ClusterNode, ClusterRouter
from repro.core.highlight import HighLightConfig
from repro.errors import (AdmissionRejected, FileNotFound, HandleClosed,
                          ReproError, UnknownTenant)
from repro.frontend import (Handle, NodeBackend, TenantBudget, load,
                            open_cluster, open_node, slo)
from repro.frontend.session import TokenBucket
from repro.sched import CLASS_WRITEOUT, MODE_SCHEDULED
from repro.sim.actor import Actor
from repro.util.units import KB, MB


def _bed(**kwargs):
    kwargs.setdefault("partition_bytes", 64 * MB)
    kwargs.setdefault("n_platters", 6)
    kwargs.setdefault("platter_constraint", 4 * MB)
    bed = harness.make_highlight(**kwargs)
    harness.preload_write_volume(bed)
    return bed


def _node_client(**kwargs):
    bed = _bed(**kwargs)
    return open_node(bed), bed


# -- token bucket ------------------------------------------------------------


def test_token_bucket_refill_is_pure_function_of_clock():
    a = TokenBucket(rate=1000.0, burst=4000.0)
    b = TokenBucket(rate=1000.0, burst=4000.0)
    # Identical call sequences at identical virtual times agree exactly.
    for now, nbytes in [(0.0, 2000), (1.0, 3000), (1.5, 500),
                        (10.0, 4000), (10.0, 100)]:
        da = a.delay(now, nbytes)
        db = b.delay(now, nbytes)
        assert da == db
        a.take(now + da, nbytes)
        b.take(now + db, nbytes)
    assert a.tokens == b.tokens
    assert a.stamp == b.stamp


def test_token_bucket_paces_to_rate():
    bucket = TokenBucket(rate=1000.0, burst=1000.0)
    bucket.take(0.0, 1000)  # drain the initial burst
    # From empty, 1000 bytes need exactly one second of refill.
    assert bucket.delay(0.0, 1000) == pytest.approx(1.0)
    assert bucket.delay(0.5, 1000) == pytest.approx(0.5)
    assert bucket.delay(1.0, 1000) == pytest.approx(0.0)


def test_token_bucket_oversized_request_runs_debt_not_deadlock():
    bucket = TokenBucket(rate=100.0, burst=1000.0)
    # A transfer larger than the burst waits only until the bucket is
    # full, then runs it into debt.
    wait = bucket.delay(0.0, 5000)
    assert wait == pytest.approx(0.0)  # bucket starts full
    bucket.take(0.0, 5000)
    assert bucket.tokens == pytest.approx(-4000.0)
    # The next request pays the debt off: 4100 bytes of refill at
    # 100 B/s before even 100 bytes may pass.
    assert bucket.delay(0.0, 100) == pytest.approx(41.0)


def test_token_bucket_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=100.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=100.0, burst=-1.0)


def test_admission_wait_is_deterministic_in_virtual_time():
    """Two identical beds replaying the same paced writes throttle at
    identical virtual timestamps."""
    stamps = []
    for _ in range(2):
        client, bed = _node_client()
        client.tenant("slow", TenantBudget(rate_bytes_per_s=64 * KB,
                                           burst_bytes=64 * KB))
        app = bed.app
        handle = client.open(app, "/paced.bin", tenant="slow", create=True)
        for i in range(4):
            client.write(app, handle, b"x" * (64 * KB), i * 64 * KB)
        client.close(app, handle)
        stamps.append((app.time, client.tenant("slow").throttle_seconds))
    assert stamps[0] == stamps[1]
    assert stamps[0][1] > 0.0  # the bucket actually engaged


# -- handle lifecycle --------------------------------------------------------


def test_handle_round_trip_and_stat():
    client, bed = _node_client()
    app = bed.app
    handle = client.open(app, "/data/a.bin", create=True)
    payload = b"front-end payload " * 1024
    assert client.write(app, handle, payload) == len(payload)
    assert client.read(app, handle) == payload
    stat = handle.stat(app)
    assert stat.path == "/data/a.bin"
    assert stat.size == len(payload)
    client.close(app, handle)


def test_path_resolution_is_charged_to_the_calling_actor():
    """open, read, stat and close resolve the path on the worker's clock;
    the filesystem's own actor stays where it was."""
    client, bed = _node_client()
    path, payload = "/data/deep/a.bin", b"payload " * 1024
    handle = client.open(bed.app, path, create=True)
    client.write(bed.app, handle, payload)
    client.close(bed.app, handle)
    bed.fs.drop_caches(bed.app)   # the walk then reads directory blocks
    worker = Actor("worker")
    kernel = bed.fs.actor.time
    handle = client.open(worker, path)
    assert client.read(worker, handle) == payload
    assert client.stat(worker, path).size == len(payload)
    client.close(worker, handle)
    assert bed.fs.actor.time == kernel
    assert worker.time > 0


def test_double_close_raises_typed_error():
    client, bed = _node_client()
    handle = client.open(bed.app, "/x", create=True)
    client.close(bed.app, handle)
    with pytest.raises(HandleClosed):
        client.close(bed.app, handle)
    assert issubclass(HandleClosed, ReproError)


def test_read_after_close_raises_typed_error():
    client, bed = _node_client()
    handle = client.open(bed.app, "/x", create=True)
    client.write(bed.app, handle, b"abc")
    client.close(bed.app, handle)
    with pytest.raises(HandleClosed):
        client.read(bed.app, handle)
    with pytest.raises(HandleClosed):
        client.write(bed.app, handle, b"more")


def test_open_missing_file_raises_file_not_found():
    client, bed = _node_client()
    with pytest.raises(FileNotFound):
        client.open(bed.app, "/no/such/file")


def test_unknown_tenant_raises_typed_error():
    client, bed = _node_client()
    with pytest.raises(UnknownTenant):
        client.open(bed.app, "/x", tenant="nobody", create=True)
    assert issubclass(UnknownTenant, ReproError)


def test_open_handle_cap_rejects():
    client, bed = _node_client()
    client.tenant("capped", TenantBudget(max_open_handles=2))
    h1 = client.open(bed.app, "/a", tenant="capped", create=True)
    client.open(bed.app, "/b", tenant="capped", create=True)
    with pytest.raises(AdmissionRejected):
        client.open(bed.app, "/c", tenant="capped", create=True)
    client.close(bed.app, h1)
    client.open(bed.app, "/c", tenant="capped", create=True)  # freed


# -- the data path end to end ------------------------------------------------


def test_migrate_and_demand_fetch_round_trip():
    config = HighLightConfig(sched_mode=MODE_SCHEDULED)
    client, bed = _node_client(config=config)
    app = bed.app
    payload = bytes((i * 7) & 0xFF for i in range(MB))
    handle = client.open(app, "/archive/cold.bin", create=True)
    client.write(app, handle, payload)
    client.migrate(app, handle)
    client.flush(app)
    client.drop_caches(app)
    assert client.read(app, handle) == payload  # demand fetch
    client.close(app, handle)
    assert bed.fs.stats.demand_fetches > 0


def test_same_workload_script_runs_on_both_backends():
    """The acceptance-criterion property: one generated request stream,
    two topologies, zero corruption and every request completed; a
    sparse file reads back the same on both."""
    paths = tuple(f"/data/f{i}.bin" for i in range(3))
    spec = load.WorkloadSpec(
        seed=42,
        mixes=(load.TenantMix(tenant="t", paths=paths,
                              request_bytes=16 * KB),),
        n_clients=100, duration=120.0, mean_interarrival=1_000.0,
        max_requests=12)
    requests = load.generate(spec)
    assert requests

    payloads = {p: f"payload {p}".encode() * 4096 for p in paths}
    results, sparse = [], []
    for make in ("node", "cluster"):
        if make == "node":
            client, bed = _node_client()
            actor = bed.app
        else:
            nodes = [ClusterNode(i, n_platters=6, platter_bytes=4 * MB)
                     for i in range(2)]
            client = open_cluster(ClusterRouter(nodes, seed=7))
            actor = Actor("cluster-loader")
        client.tenant("t", TenantBudget())
        for p, data in payloads.items():
            handle = client.open(actor, p, tenant="t", create=True)
            client.write(actor, handle, data)
            client.close(actor, handle)
        result = load.replay(client, requests,
                             verify={p: d for p, d in payloads.items()})
        results.append(result)
        # A sparse file: the unwritten stripes and tails read as zeros.
        handle = client.open(actor, "/data/sparse.bin", tenant="t",
                             create=True)
        client.write(actor, handle, b"s" * 100)
        client.write(actor, handle, b"t" * 100, 3 * MB)
        sparse.append(client.read(actor, handle))
        client.close(actor, handle)
    for result in results:
        assert result.corrupt == 0
        assert len(result.all_latencies("t")) == len(requests)
    assert sparse == [b"s" * 100 + bytes(3 * MB - 100) + b"t" * 100] * 2
    assert [len(r.all_latencies("t")) for r in results[: 1]] == \
           [len(r.all_latencies("t")) for r in results[1:]]


# -- adversarial flooding ----------------------------------------------------


def _flood_bed():
    config = HighLightConfig(sched_mode=MODE_SCHEDULED)
    bed = _bed(n_platters=12, config=config)
    client = open_node(bed)
    client.tenant("victim", TenantBudget())
    client.tenant("flood", TenantBudget(
        qos_class=CLASS_WRITEOUT, rate_bytes_per_s=256 * KB,
        burst_bytes=MB, max_queued=2, weight=4.0))
    app = bed.app
    payload = b"v" * MB
    handle = client.open(app, "/cold/victim.bin", tenant="victim",
                         create=True)
    client.write(app, handle, payload)
    client.close(app, handle)
    client.migrate(app, "/cold/victim.bin", tenant="victim")
    client.flush(app)
    client.drop_caches(app)
    return client, bed, payload


def test_flooding_tenant_pays_its_own_writeout_backlog():
    """``max_queued`` drains on the *flooder's* actor: after every
    migrate the write-out queue is back at or under the cap."""
    client, bed, _ = _flood_bed()
    app = bed.app
    for i in range(3):
        path = f"/bulk/flood{i}.bin"
        handle = client.open(app, path, tenant="flood", create=True)
        client.write(app, handle, b"f" * MB)
        client.close(app, handle)
        client.migrate(app, path, tenant="flood")
        assert client.backend.queued_writeouts() <= 2
    assert client.tenant("flood").throttle_seconds > 0.0


def test_flood_cannot_blow_victim_demand_p99_past_gate():
    """A flooding batch tenant leaves the victim's demand read within
    the scenario-shaped bound: solo latency plus one robot exchange
    plus one in-flight write-out (the non-preemptible residue)."""
    # Solo baseline: one cold demand read, no competition.
    client, bed, payload = _flood_bed()
    app = bed.app
    t0 = app.time
    handle = client.open(app, "/cold/victim.bin", tenant="victim")
    assert client.read(app, handle) == payload
    client.close(app, handle)
    solo = app.time - t0

    # Fresh bed; flood first, then the same demand read.
    client, bed, payload = _flood_bed()
    app = bed.app
    for i in range(3):
        path = f"/bulk/flood{i}.bin"
        handle = client.open(app, path, tenant="flood", create=True)
        client.write(app, handle, b"f" * MB)
        client.close(app, handle)
        client.migrate(app, path, tenant="flood")
    t0 = app.time
    handle = client.open(app, "/cold/victim.bin", tenant="victim")
    assert client.read(app, handle) == payload
    client.close(app, handle)
    contended = app.time - t0

    # One media exchange (13.5 s) + one non-preemptible in-flight
    # write-out (~20 s worst case) is the irreducible interference.
    assert contended <= 2.0 * solo + 35.0


def test_cluster_control_plane_migrate_pump():
    """The cluster's control verbs end to end on a 2-shard scheduled
    cluster: a capped migrate drains its own write-outs, and pump's
    limit spans the shards in id order."""
    config = HighLightConfig(sched_mode=MODE_SCHEDULED)
    nodes = [ClusterNode(i, n_platters=6, platter_bytes=4 * MB,
                         config=config) for i in range(2)]
    router = ClusterRouter(nodes, seed=7)
    client = open_cluster(router)
    client.tenant("t", TenantBudget(max_queued=1))
    client.tenant("u", TenantBudget())
    actor = Actor("c")
    for path, tenant in (("/a.bin", "t"), ("/b.bin", "u")):
        handle = client.open(actor, path, tenant=tenant, create=True)
        client.write(actor, handle, b"a" * (4 * MB))
        client.close(actor, handle)
    assert sorted(router.placement[k] for k in router.extents_of("/a.bin")) \
        == [0, 0, 1, 1]

    client.migrate(actor, "/a.bin", tenant="t")
    assert client.backend.queued_writeouts() == 1  # drained to the cap
    client.migrate(actor, "/b.bin", tenant="u")  # uncapped: no drain

    def queued():
        return [n.fs.sched.queued(CLASS_WRITEOUT) for n in nodes]

    assert queued() == [3, 4]
    assert client.pump(actor, limit=1) == 1
    assert queued() == [2, 4]
    assert client.pump(actor, limit=5) == 5  # shard 0 empties first
    assert queued() == [0, 1]
    assert client.pump(actor) == 1
    assert [n.actor.time for n in nodes] == [81.3101782502399,
                                             81.31045866118329]
    assert actor.time == 20.285042947492496


# -- the workload generator --------------------------------------------------


def _spec(seed=1234, **kwargs):
    kwargs.setdefault("n_clients", 1_000)
    kwargs.setdefault("duration", 300.0)
    kwargs.setdefault("mean_interarrival", 5_000.0)
    return load.WorkloadSpec(
        seed=seed,
        mixes=(load.TenantMix(tenant="a", share=0.7,
                              paths=("/p0", "/p1", "/p2", "/p3")),
               load.TenantMix(tenant="b", share=0.3, read_fraction=0.0,
                              paths=("/q0", "/q1"))),
        **kwargs)


def test_generator_is_deterministic_per_seed():
    first = load.generate(_spec(seed=99))
    second = load.generate(_spec(seed=99))
    other = load.generate(_spec(seed=100))
    assert first == second
    assert first != other


def test_generator_respects_window_and_cap():
    reqs = load.generate(_spec(max_requests=17))
    assert len(reqs) <= 17
    assert all(0.0 <= r.t <= 300.0 for r in reqs)
    assert all(r.t <= nxt.t for r, nxt in zip(reqs, reqs[1:]))


def test_generator_zipf_prefers_hot_ranks():
    reqs = load.generate(_spec(duration=3_000.0, zipf_s=1.3))
    counts = {}
    for r in reqs:
        if r.tenant == "a":
            counts[r.path] = counts.get(r.path, 0) + 1
    assert counts.get("/p0", 0) > counts.get("/p3", 0)


def test_generator_tenant_mix_shares():
    reqs = load.generate(_spec(duration=3_000.0))
    a = sum(1 for r in reqs if r.tenant == "a")
    b = sum(1 for r in reqs if r.tenant == "b")
    assert a > b  # 0.7 vs 0.3 share
    assert all(r.op == "write" for r in reqs if r.tenant == "b")


def test_diurnal_rate_modulation():
    spec = _spec(diurnal_amplitude=0.5, diurnal_period=400.0)
    assert spec.rate_at(100.0) == pytest.approx(1.5 * spec.base_rate())
    assert spec.rate_at(300.0) == pytest.approx(0.5 * spec.base_rate())


# -- the SLO engine ----------------------------------------------------------


def test_percentile_interpolates():
    assert slo.percentile([], 99) == 0.0
    assert slo.percentile([5.0], 50) == 5.0
    assert slo.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert slo.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


def test_fairness_index_jain():
    report = slo.from_latencies(
        {"a": [0.1], "b": [0.1]}, {"a": 1000, "b": 1000}, 10.0)
    assert report.fairness_index == pytest.approx(1.0)
    assert report.starvation_index == pytest.approx(1.0)
    lopsided = slo.from_latencies(
        {"a": [0.1], "b": [0.1]}, {"a": 10_000, "b": 0}, 10.0)
    assert lopsided.fairness_index == pytest.approx(0.5)
    assert lopsided.starvation_index == 0.0


def test_fairness_normalizes_by_weight():
    """A bulk tenant moving 4x the bytes at 4x the weight is *fair*."""
    report = slo.from_latencies(
        {"a": [0.1], "b": [0.1]}, {"a": 1000, "b": 4000}, 10.0,
        weights={"a": 1.0, "b": 4.0})
    assert report.fairness_index == pytest.approx(1.0)


# -- snapshot header plumbing ------------------------------------------------


def test_snapshot_header_recorded(tmp_path):
    obs.reset()
    path = harness.dump_observability(
        "header_probe", out_dir=str(tmp_path),
        header={"scenario": "frontend", "seed": 1993, "quick": True})
    with open(path, encoding="utf-8") as fh:
        snap = json.load(fh)
    assert snap["header"] == {"scenario": "frontend", "seed": 1993,
                              "quick": True}
    assert "metrics" in snap


def test_snapshot_without_header_unchanged(tmp_path):
    obs.reset()
    path = harness.dump_observability("no_header", out_dir=str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        snap = json.load(fh)
    assert "header" not in snap


# -- one session implementation ----------------------------------------------


def test_router_uses_frontend_session_objects():
    """One session implementation: a cluster ``Client`` hands out the
    same ``Handle`` record as a node one (the router itself has no
    descriptors), so lifecycle errors are the same typed exceptions."""
    nodes = [ClusterNode(0, n_platters=4, platter_bytes=4 * MB)]
    router = ClusterRouter(nodes, seed=3)
    actor = Actor("legacy")
    client = open_cluster(router)
    client.tenant("t", TenantBudget())
    handle = client.open(actor, "/legacy2.bin", tenant="t", create=True)
    assert isinstance(handle, Handle)
    assert (handle.path, handle.owner, handle.tenant, handle.closed) == \
        ("/legacy2.bin", "legacy", "t", False)
    assert client.handles == {handle.fd: handle}
    assert client.tenant("t").open_handles == 1
    client.close(actor, handle)
    assert handle.closed and client.handles == {}
    assert client.tenant("t").open_handles == 0
    with pytest.raises(HandleClosed):
        client.close(actor, handle)
    with pytest.raises(HandleClosed):
        client.read(actor, handle)
    # A handle is only good on the client that opened it.
    other = open_cluster(router).open(actor, "/legacy2.bin")
    with pytest.raises(HandleClosed):
        client.read(actor, other)


# -- one definition of each per-stack control verb ---------------------------

CONTROL_VERBS = ("migrate", "seal", "queued_writeouts", "pump",
                 "flush", "drop_caches")


def test_control_verbs_are_defined_once_on_node_backend(monkeypatch):
    """The front end has no protocol base class, a shard has no second
    copy of the node control verbs, and each cluster control verb other
    than migrate (which moves extent objects) runs ``NodeBackend``'s on
    every shard in id order, each on the shard's own actor."""
    from repro import frontend
    from repro.frontend import backends

    assert not hasattr(frontend, "Backend")
    assert not hasattr(backends, "Backend")
    for verb in CONTROL_VERBS:
        assert verb in vars(NodeBackend), verb
        assert verb not in vars(ClusterNode), verb
    for name in ("FileSession", "SessionTable"):
        assert not hasattr(frontend.session, name)

    nodes = [ClusterNode(i, n_platters=4, platter_bytes=4 * MB)
             for i in (1, 0)]
    backend = open_cluster(ClusterRouter(nodes, seed=3)).backend
    shards = sorted(nodes, key=lambda n: n.shard_id)
    actor = Actor("c")
    for verb in ("seal", "pump", "flush", "drop_caches", "queued_writeouts"):
        args = () if verb == "queued_writeouts" else (actor,)
        original = getattr(NodeBackend, verb)
        calls = []

        def spy(self, *a, _original=original, _calls=calls):
            _calls.append((self.fs, a[0] if a else None))
            return _original(self, *a)

        with monkeypatch.context() as m:
            m.setattr(NodeBackend, verb, spy)
            getattr(backend, verb)(*args)
        assert calls == [(n.fs, n.actor if args else None)
                         for n in shards], verb

    # The shard's one inbound move makes NodeBackend.flush's calls, in
    # its order, after storing and migrating the extent.
    node = shards[0]
    calls = []
    for owner, name in ((node, "write_object"), (node, "migrate_object"),
                        (node.migrator, "flush"), (node.fs.sched, "pump"),
                        (node.fs, "checkpoint")):
        monkeypatch.setattr(owner, name,
                            lambda a, *rest, _n=name: calls.append((_n, a)))
    NodeBackend(node).flush(node.actor)
    flushed, calls[:] = list(calls), []
    node.adopt_object(node.actor, "k", b"x", tertiary=True)
    assert calls == [("write_object", node.actor),
                     ("migrate_object", node.actor)] + flushed
    assert [name for name, _ in flushed] == ["flush", "pump", "checkpoint"]
