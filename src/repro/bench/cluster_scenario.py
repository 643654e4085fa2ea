"""The ``cluster`` bench scenario: demand-throughput scaling over shards.

Builds shared-nothing clusters of 1/2/4 (quick) or 1/2/4/8 (full)
:class:`~repro.cluster.node.ClusterNode` shards behind one
:class:`~repro.cluster.router.ClusterRouter`, loads an identical archive
into each (write, migrate to tertiary, drop caches), then replays the
same seeded Zipfian read workload from concurrent client actors under
the conservative :class:`repro.sim.scheduler.Scheduler`.

Gates (RuntimeError on violation):

* demand throughput at 4 shards >= 3x the 1-shard figure, and the trend
  is monotone across shard counts (near-linear scaling);
* p99 demand latency stays bounded relative to the 1-shard baseline;
* the quarantine leg — one shard's busiest tertiary volume is force-
  quarantined mid-run on a replicated 4-shard cluster — loses zero
  acknowledged bytes and degrades only the victim shard.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster import ClusterNode, ClusterRouter, cluster_rollup
from repro.core.highlight import HighLightConfig
from repro.frontend import NodeBackend
from repro.sim.actor import Actor
from repro.sim.scheduler import Scheduler
from repro.util.units import MB

__all__ = ["run_cluster"]

_CLUSTER_SEED = 2718
_FILE_BYTES = 2 * MB
_ZIPF_S = 1.1
#: Per-shard geometry: every shard must be able to hold the whole
#: archive on its tertiary tier (the 1-shard leg), replicas included.
_SHARD_PLATTERS = 10
_PLATTER_BYTES = 4 * MB


def _payload(tag: int, nbytes: int) -> bytes:
    word = (f"cluster-scenario payload {tag:04d} ".encode() * 64)[:256]
    return (word * (nbytes // 256 + 1))[:nbytes]


def _files(quick: bool) -> Dict[str, bytes]:
    count = 8 if quick else 12
    return {f"/data/file{i:02d}.bin": _payload(i, _FILE_BYTES)
            for i in range(count)}


def _zipf_requests(paths: Sequence[str], total: int,
                   seed: int = _CLUSTER_SEED) -> List[str]:
    """``total`` file picks under a Zipf(s) popularity law, seeded so
    every shard count replays the identical request stream."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** _ZIPF_S for rank in range(len(paths))]
    scale = sum(weights)
    out: List[str] = []
    for _ in range(total):
        r = rng.random() * scale
        for path, w in zip(paths, weights):
            r -= w
            if r <= 0:
                out.append(path)
                break
        else:
            out.append(paths[-1])
    return out


def _build_cluster(n_shards: int, files: Dict[str, bytes],
                   replicate: bool = False,
                   seed: int = _CLUSTER_SEED) -> ClusterRouter:
    """A loaded cluster: archive written, migrated to tertiary, caches
    cold — every read in the measured phase starts as demand traffic."""
    nodes = [ClusterNode(i, n_platters=_SHARD_PLATTERS,
                         platter_bytes=_PLATTER_BYTES,
                         config=HighLightConfig(),
                         replicate=replicate)
             for i in range(n_shards)]
    router = ClusterRouter(nodes, seed=seed)
    loader = Actor("cluster-loader")
    for path, data in files.items():
        router.write_path(loader, path, data)
    for node in nodes:
        for key in sorted(node.objects):
            node.migrate_object(node.actor, key)
        backend = NodeBackend(node)
        backend.flush(node.actor)
        backend.drop_caches(node.actor)
    return router


def _run_workload(router: ClusterRouter, requests: Sequence[str],
                  files: Dict[str, bytes], n_clients: int,
                  start: float) -> Tuple[List[float], int, float]:
    """Replay ``requests`` round-robin across ``n_clients`` concurrent
    client actors; returns (latencies, corrupt count, makespan)."""
    latencies: List[float] = []
    corrupt = [0]

    def make_task(client: Actor, mine: Sequence[str]):
        def gen():
            client.sleep_until(start)
            for path in mine:
                t0 = client.time
                data = router.read_path(client, path)
                latencies.append(client.time - t0)
                if data != files[path]:
                    corrupt[0] += 1
                yield path
        return gen

    sched = Scheduler()
    clients = [Actor(f"client{i}") for i in range(n_clients)]
    for i, client in enumerate(clients):
        sched.add(client, make_task(client, requests[i::n_clients]))
    sched.run()
    makespan = max(c.time for c in clients) - start
    return latencies, corrupt[0], makespan


def _p99(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _scaling_leg(counts: Sequence[int], files: Dict[str, bytes],
                 requests: Sequence[str], n_clients: int,
                 seed: int = _CLUSTER_SEED
                 ) -> Dict[int, Dict[str, float]]:
    per_count: Dict[int, Dict[str, float]] = {}
    for n in counts:
        router = _build_cluster(n, files, seed=seed)
        start = router.makespan()
        lat, bad, makespan = _run_workload(router, requests, files,
                                           n_clients, start)
        nbytes = len(requests) * _FILE_BYTES
        per_count[n] = {
            "demand_bytes": float(nbytes),
            "makespan_seconds": makespan,
            "throughput_bytes_per_second": nbytes / makespan,
            "p50_seconds": sorted(lat)[len(lat) // 2],
            "p99_seconds": _p99(lat),
            "corrupt_chunks": float(bad),
        }
        if n == max(counts):
            cluster_rollup(router)
    return per_count


def _quarantine_victim(router: ClusterRouter) -> Tuple[ClusterNode, int]:
    """The shard 0 volume holding the most migrated extent segments —
    quarantining it guarantees the measured phase hits degraded reads."""
    node = router.nodes[0]
    per_volume: Dict[int, int] = {}
    for tsegno in node.migrator.hint_table:
        vol_idx, _seg = node.fs.aspace.volume_of(tsegno)
        vid = node.fs.tsegfile.volumes[vol_idx].volume_id
        per_volume[vid] = per_volume.get(vid, 0) + 1
    victim = max(sorted(per_volume), key=lambda vid: per_volume[vid])
    return node, victim


def _quarantine_leg(files: Dict[str, bytes], requests: Sequence[str],
                    n_clients: int,
                    seed: int = _CLUSTER_SEED) -> Dict[str, float]:
    """4-shard replicated cluster; mid-run, force-quarantine the victim
    volume and keep reading.  Zero acknowledged-byte loss required."""
    router = _build_cluster(4, files, replicate=True, seed=seed)
    half = len(requests) // 2
    start = router.makespan()
    lat1, bad1, _ = _run_workload(router, requests[:half], files,
                                  n_clients, start)

    node, victim = _quarantine_victim(router)
    node.quarantine_volume(victim, router.makespan(), kind="bench")
    replica_reads_before = node.replicas.replica_reads
    # Cache-cold failover: the victim shard restarts with nothing
    # cached, so its reads must demand-fetch through the quarantined
    # volume's replicas.  The tail sweep re-reads the whole archive —
    # the acknowledged-byte-loss check covers every extent, not just
    # the ones the Zipf draw happens to revisit.
    NodeBackend(node).drop_caches(node.actor)

    start2 = router.makespan()
    tail = list(requests[half:]) + sorted(files)
    lat2, bad2, _ = _run_workload(router, tail, files,
                                  n_clients, start2)
    rollup = cluster_rollup(router)
    others_degraded = sum(
        1 for sid, shard in rollup["shards"].items()
        if sid != node.shard_id and shard["degraded"])
    return {
        "corrupt_chunks": float(bad1 + bad2),
        "victim_degraded": 1.0 if node.degraded() else 0.0,
        "other_shards_degraded": float(others_degraded),
        # Fetches the victim shard served from a replica copy after the
        # quarantine: the closest-copy ranking skips the fenced volume up
        # front, so the error-path ``degraded_reads`` counter can
        # legitimately stay 0.
        "replica_reads": float(node.replicas.replica_reads
                               - replica_reads_before),
        "degraded_reads": float(node.replicas.degraded_reads),
        "before_p99_seconds": _p99(lat1),
        "after_p99_seconds": _p99(lat2),
    }


def run_cluster(quick: bool = False,
                seed: Optional[int] = None) -> Tuple[Dict[str, float], str]:
    """Zipfian demand workload vs 1/2/4(/8) shards plus the mid-run
    quarantine leg; returns (data, report) and raises on any violated
    scaling or durability gate.  ``seed`` reseeds both the Zipf request
    stream and the routers' hash rings (default ``_CLUSTER_SEED``)."""
    seed = _CLUSTER_SEED if seed is None else int(seed)
    files = _files(quick)
    counts = (1, 2, 4) if quick else (1, 2, 4, 8)
    n_clients = 4 if quick else 6
    n_requests = 40 if quick else 96
    requests = _zipf_requests(sorted(files), n_requests, seed)

    per_count = _scaling_leg(counts, files, requests, n_clients, seed)
    quarantine = _quarantine_leg(files, requests, n_clients, seed)

    tput = {n: per_count[n]["throughput_bytes_per_second"]
            for n in counts}
    speedup4 = tput[4] / tput[1]
    data: Dict[str, float] = {"speedup_4_shards": speedup4,
                              "seed": float(seed)}
    for n in counts:
        for name, value in per_count[n].items():
            data[f"shards{n}_{name}"] = value
    for name, value in quarantine.items():
        data[f"quarantine_{name}"] = value
    for name, value in data.items():
        obs.gauge(f"cluster_bench_{name}",
                  "cluster scenario outcome "
                  "(see repro.bench.cluster_scenario)").set(value)

    p99_bound = 2.0 * per_count[1]["p99_seconds"] + 60.0
    problems = []
    if speedup4 < 3.0:
        problems.append(
            f"4-shard speedup {speedup4:.2f}x is below the 3x gate")
    for prev, cur in zip(counts, counts[1:]):
        if tput[cur] < 0.95 * tput[prev]:
            problems.append(
                f"throughput regressed {prev}->{cur} shards "
                f"({tput[prev]:.0f} -> {tput[cur]:.0f} B/s)")
    for n in counts:
        if per_count[n]["corrupt_chunks"]:
            problems.append(f"{per_count[n]['corrupt_chunks']:.0f} corrupt "
                            f"reads at {n} shard(s)")
        if per_count[n]["p99_seconds"] > p99_bound:
            problems.append(
                f"p99 at {n} shard(s) {per_count[n]['p99_seconds']:.2f}s "
                f"exceeds bound {p99_bound:.2f}s")
    if quarantine["corrupt_chunks"]:
        problems.append(
            f"{quarantine['corrupt_chunks']:.0f} corrupt reads after the "
            "mid-run quarantine (acknowledged-byte loss)")
    if not quarantine["victim_degraded"]:
        problems.append("quarantine never degraded the victim shard")
    if quarantine["other_shards_degraded"]:
        problems.append(
            f"{quarantine['other_shards_degraded']:.0f} non-victim "
            "shard(s) degraded — the fault bled across shards")
    if quarantine["replica_reads"] < 1:
        problems.append("no read was ever served from a replica after "
                        "the quarantine")
    if problems:
        raise RuntimeError("cluster scenario failed: "
                           + "; ".join(problems))

    lines = [
        "cluster: Zipfian demand workload over consistent-hash shards "
        f"({'quick' if quick else 'full'}, seed {seed}, "
        f"{len(files)} files x {_FILE_BYTES // MB} MB, "
        f"{n_requests} reads, {n_clients} clients)",
    ]
    for n in counts:
        row = per_count[n]
        lines.append(
            f"  {n} shard(s): {row['throughput_bytes_per_second'] / MB:6.3f}"
            f" MB/s ({tput[n] / tput[1]:4.2f}x), makespan "
            f"{row['makespan_seconds']:8.2f} s, p50 "
            f"{row['p50_seconds']:6.2f} s, p99 {row['p99_seconds']:6.2f} s")
    lines.append(
        f"  scaling gate: {speedup4:.2f}x at 4 shards (>= 3x), "
        f"p99 bound {p99_bound:.2f} s")
    lines.append(
        f"  quarantine leg: victim degraded, "
        f"{quarantine['replica_reads']:.0f} fetch(es) served from "
        "replica copies, zero acknowledged bytes lost, "
        f"{quarantine['other_shards_degraded']:.0f} other shard(s) "
        "affected")
    return data, "\n".join(lines)
