"""Integration tests: the sharded cluster (repro.cluster).

Each test builds a small real cluster — every shard a full HighLight
stack on its own actor — and drives it through the router, so the
properties proved here (striping round trips, fan-out costing max not
sum, minimal-movement rebalance with data intact, quarantine isolation)
hold over the same code paths the ``cluster`` bench scenario measures.
"""

import pytest

from repro import obs, open_cluster
from repro.cluster import (ClusterNode, ClusterRouter, EV_ROUTE_DISPATCH,
                           EV_SHARD_MIGRATE, MigrationCoordinator,
                           cluster_rollup, extent_key)
from repro.errors import FileNotFound, HandleClosed, InvalidArgument
from repro.frontend import Handle, NodeBackend
from repro.sim.actor import Actor
from repro.util.units import MB


def payload(tag: int, nbytes: int) -> bytes:
    word = (f"cluster-test payload {tag:04d} ".encode() * 32)[:128]
    return (word * (nbytes // 128 + 1))[:nbytes]


def make_cluster(n_shards: int, replicate: bool = False,
                 stripe_bytes: int = 1 * MB):
    nodes = [ClusterNode(i, replicate=replicate) for i in range(n_shards)]
    return ClusterRouter(nodes, seed=0, stripe_bytes=stripe_bytes), nodes


def migrate_everything(router: ClusterRouter) -> None:
    for node in router.nodes.values():
        for key in sorted(node.objects):
            node.migrate_object(node.actor, key)
        backend = NodeBackend(node)
        backend.flush(node.actor)
        backend.drop_caches(node.actor)


class TestRouterRoundTrip:
    def test_striped_write_read(self):
        router, _nodes = make_cluster(2)
        client = Actor("client")
        data = payload(1, 3 * MB)
        assert router.write_path(client, "/data/a.bin", data) == len(data)
        assert router.read_path(client, "/data/a.bin") == data
        assert router.size_of("/data/a.bin") == len(data)
        assert router.extents_of("/data/a.bin") == [
            extent_key("/data/a.bin", i) for i in range(3)]
        # Every extent is catalogued on the shard the ring names.
        for key, sid in router.placement.items():
            assert sid == router.ring.owner(key)

    def test_ranged_reads_and_overwrites(self):
        router, _nodes = make_cluster(2)
        client = Actor("client")
        model = bytearray(payload(2, 2 * MB + 4096))
        router.write_path(client, "/f", bytes(model))
        # A sub-extent overwrite straddling the stripe boundary.
        patch = payload(3, 64 * 1024)
        off = 1 * MB - 1000
        router.write_path(client, "/f", patch, off)
        model[off:off + len(patch)] = patch
        assert router.read_path(client, "/f") == bytes(model)
        assert router.read_path(client, "/f", off - 17, len(patch) + 34) == \
            bytes(model[off - 17:off + len(patch) + 17])

    def test_session_errors(self):
        router, _nodes = make_cluster(1)
        client = Actor("client")
        with pytest.raises(FileNotFound):
            router.read_path(client, "/missing")
        with pytest.raises(InvalidArgument):
            ClusterRouter([], seed=0)

    def test_sessions_are_shared_frontend_objects(self):
        # One session implementation: a cluster handle is the
        # repro.frontend Handle record.
        router, _nodes = make_cluster(1)
        actor = Actor("client")
        client = open_cluster(router)
        handle = client.open(actor, "/f", create=True)
        assert isinstance(handle, Handle)
        assert client.handles[handle.fd] is handle
        assert handle.owner == "client"
        client.close(actor, handle)
        with pytest.raises(HandleClosed):
            client.close(actor, handle)

    def test_demand_reads_after_migration(self):
        router, _nodes = make_cluster(2)
        client = Actor("client")
        data = payload(4, 2 * MB)
        router.write_path(client, "/cold.bin", data)
        migrate_everything(router)
        client.sleep_until(router.makespan())
        assert router.read_path(client, "/cold.bin") == data
        fetched = sum(node.fs.stats.demand_fetches
                      for node in router.nodes.values())
        assert fetched >= 2  # both extents came up from tertiary


class TestFanOutTiming:
    def test_fanout_costs_max_not_sum(self):
        router, _nodes = make_cluster(4)
        client = Actor("client")
        data = payload(5, 4 * MB)
        router.write_path(client, "/wide.bin", data)
        migrate_everything(router)
        client.sleep_until(router.makespan())
        t0 = client.time
        obs.trace().clear()
        assert router.read_path(client, "/wide.bin") == data
        elapsed = client.time - t0
        events = obs.trace().events(EV_ROUTE_DISPATCH)
        assert len(events) >= 2  # the file spans several shards
        per_shard = [ev.fields["wait"] + ev.fields["service"]
                     for ev in events]
        # The client resumed at the slowest shard, not the sum of all.
        assert elapsed == pytest.approx(max(per_shard))
        assert elapsed < sum(per_shard)

    def test_repeated_runs_are_deterministic(self):
        def one_run():
            router, _nodes = make_cluster(3)
            client = Actor("client")
            for i in range(3):
                router.write_path(client, f"/d/f{i}", payload(i, 2 * MB))
            migrate_everything(router)
            client.sleep_until(router.makespan())
            for i in range(3):
                router.read_path(client, f"/d/f{i}")
            return client.time, dict(router.placement)

        assert one_run() == one_run()


class TestRebalance:
    def test_add_shard_moves_minimally_and_keeps_data(self):
        router, _nodes = make_cluster(2)
        client = Actor("client")
        files = {f"/data/f{i}": payload(i, 2 * MB) for i in range(3)}
        for path, data in files.items():
            router.write_path(client, path, data)
        migrate_everything(router)
        before = dict(router.placement)

        coord = MigrationCoordinator(router)
        op = Actor("operator")
        op.sleep_until(router.makespan())
        report = coord.add_shard(ClusterNode(2), op)

        assert report.added == 2
        assert report.moved + report.kept_keys == len(before)
        for key in report.moved_keys:
            assert router.placement[key] == 2  # only moves TO the joiner
        for key, sid in before.items():
            if key not in report.moved_keys:
                assert router.placement[key] == sid
        assert report.moved_bytes == report.moved * MB  # 1 MB extents
        # Moves ride the zero-copy fetch path: the ledger charge stays
        # within a staging copy + cache assembly per moved byte.
        assert report.copied_bytes <= 3 * report.moved_bytes
        events = obs.trace().events(EV_SHARD_MIGRATE)
        assert {ev.fields["key"] for ev in events} >= set(report.moved_keys)
        client.sleep_until(router.makespan())
        for path, data in files.items():
            assert router.read_path(client, path) == data

    def test_remove_shard_drains_completely(self):
        router, _nodes = make_cluster(3)
        client = Actor("client")
        files = {f"/data/g{i}": payload(10 + i, 2 * MB) for i in range(3)}
        for path, data in files.items():
            router.write_path(client, path, data)
        coord = MigrationCoordinator(router)
        op = Actor("operator")
        op.sleep_until(router.makespan())
        report = coord.remove_shard(2, op)
        assert report.removed == 2
        assert 2 not in router.nodes
        assert all(sid != 2 for sid in router.placement.values())
        client.sleep_until(router.makespan())
        for path, data in files.items():
            assert router.read_path(client, path) == data
        with pytest.raises(InvalidArgument):
            coord.remove_shard(7, op)

    def test_last_shard_cannot_leave(self):
        router, _nodes = make_cluster(1)
        coord = MigrationCoordinator(router)
        with pytest.raises(InvalidArgument):
            coord.remove_shard(0, Actor("op"))


class TestQuarantine:
    def test_quarantine_degrades_only_the_victim(self):
        router, nodes = make_cluster(2, replicate=True)
        client = Actor("client")
        files = {f"/q/f{i}": payload(20 + i, 2 * MB) for i in range(2)}
        for path, data in files.items():
            router.write_path(client, path, data)
        migrate_everything(router)

        victim = nodes[0]
        vid = victim.fs.tsegfile.volumes[0].volume_id
        victim.quarantine_volume(vid, router.makespan())
        NodeBackend(victim).drop_caches(victim.actor)
        assert victim.degraded()
        assert not nodes[1].degraded()

        client.sleep_until(router.makespan())
        for path, data in files.items():
            assert router.read_path(client, path) == data
        rollup = cluster_rollup(router)
        assert rollup["cluster"]["degraded_shards"] == 1.0
        assert rollup["shards"][0]["degraded"] == 1.0
        assert rollup["shards"][1]["degraded"] == 0.0

    def test_quarantine_needs_fault_machinery(self):
        node = ClusterNode(0)
        with pytest.raises(RuntimeError):
            node.quarantine_volume(1, 0.0)


class TestRollupAndMetrics:
    def test_rollup_shape_and_gauges(self):
        router, _nodes = make_cluster(2)
        client = Actor("client")
        router.write_path(client, "/r/a", payload(30, 2 * MB))
        router.read_path(client, "/r/a")
        rollup = cluster_rollup(router)
        assert rollup["cluster"]["shards"] == 2.0
        assert rollup["cluster"]["objects"] == 2.0
        assert rollup["cluster"]["object_bytes"] == float(2 * MB)
        assert rollup["cluster"]["files"] == 1.0
        assert rollup["cluster"]["placed_extents"] == 2.0
        assert set(rollup["shards"]) == {0, 1}
        reg = obs.metrics()
        assert reg.get("cluster_shards") == 2.0
        assert reg.get("cluster_route_requests_total",
                       shard=0, op="write") + \
            reg.get("cluster_route_requests_total",
                    shard=1, op="write") >= 1.0
