"""The cluster front end: route file I/O to the shards that own it.

A :class:`ClusterRouter` is the thin layer Lustre clients and
openvstorage storage routers put between applications and the storage
pool: it owns the cluster namespace (path -> size), stripes every file
into fixed-size extents, places each extent on the
:class:`~repro.cluster.ring.HashRing`, and exposes path-level
``read_path``/``write_path``/``size_of``; sessions and handles belong to
:class:`repro.frontend.session.Client`, which drives those through
``ClusterBackend``.  All data I/O lands on
:class:`~repro.cluster.node.ClusterNode` object methods — the router is
the single component allowed to address a foreign shard (rule HL014).

Timing model (the "join" of the shared-nothing shard clocks): a request
issued by a client at time *t* arrives at each involved shard at *t*;
the shard serves it no earlier than its own timeline allows (a busy
shard queues the request), and the client resumes at the latest involved
shard's completion time.  A read spanning extents on k shards therefore
costs max over shards, not the sum — the fan-out parallelism the whole
subsystem exists for — while requests hitting one busy shard still queue
behind each other.  Run several client actors under
:class:`repro.sim.scheduler.Scheduler` and the usual conservative
lowest-clock-first discipline keeps the interleaving deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster.node import ClusterNode
from repro.cluster.ring import HashRing
from repro.errors import FileNotFound, InvalidArgument
from repro.sim.actor import Actor
from repro.util.units import MB

__all__ = ["ClusterRouter", "EV_ROUTE_DISPATCH", "extent_key"]

#: One event per shard touched by a routed request.
EV_ROUTE_DISPATCH = obs.register_event_type("route_dispatch")

#: Default stripe: one tertiary segment's worth of data, so a sealed
#: extent migrates as (about) one whole segment.
DEFAULT_STRIPE_BYTES = 1 * MB


def extent_key(path: str, index: int) -> str:
    """The placement key of one stripe of ``path``."""
    return f"{path}#{index}"


class ClusterRouter:
    """Routes path-level reads and writes across the shard set."""

    def __init__(self, nodes: Sequence[ClusterNode],
                 seed: int = 0, vnodes: Optional[int] = None,
                 stripe_bytes: int = DEFAULT_STRIPE_BYTES) -> None:
        if not nodes:
            raise InvalidArgument("a cluster needs at least one shard")
        if stripe_bytes < 1:
            raise InvalidArgument("stripe_bytes must be positive")
        self.nodes: Dict[int, ClusterNode] = {}
        ring_kwargs = {} if vnodes is None else {"vnodes": vnodes}
        self.ring = HashRing(seed=seed, **ring_kwargs)
        for node in nodes:
            if node.shard_id in self.nodes:
                raise InvalidArgument(
                    f"duplicate shard id {node.shard_id!r}")
            self.nodes[node.shard_id] = node
            self.ring.add_shard(node.shard_id)
        self.stripe_bytes = stripe_bytes
        #: The cluster namespace: path -> file size in bytes.
        self.namespace: Dict[str, int] = {}
        #: Placement catalog: extent key -> shard id it was written to.
        #: ``rebalance`` diffs this against the ring after membership
        #: changes; between changes it always agrees with the ring.
        self.placement: Dict[str, int] = {}
        self._opens = obs.counter(
            "cluster_opens_total",
            "cluster files opened through the router").labels()
        #: Bound route series: (shard, op) -> (requests, bytes, wait),
        #: op -> fan-out width.
        self._routes: Dict[Tuple[int, str], tuple] = {}
        self._fanout: Dict[str, object] = {}

    # -- placement ---------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """The shard currently holding ``key`` (catalog first, ring for
        keys not yet placed)."""
        return self.placement.get(key, self.ring.owner(key))

    def _extents(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """(extent index, offset inside extent, length) covering a range."""
        out = []
        stripe = self.stripe_bytes
        pos = offset
        end = offset + nbytes
        while pos < end:
            idx = pos // stripe
            in_ext = pos - idx * stripe
            take = min(stripe - in_ext, end - pos)
            out.append((idx, in_ext, take))
            pos += take
        return out

    # -- the path surface (what ClusterBackend and the generators drive) ----------

    def size_of(self, path: str) -> int:
        if path not in self.namespace:
            raise FileNotFound(f"no such cluster file: {path}")
        return self.namespace[path]

    def write_path(self, client: Actor, path: str, data: bytes,
                   offset: int = 0) -> int:
        """Write ``data`` at ``offset`` (creating ``path``), striped
        across the owning shards."""
        self.namespace.setdefault(path, 0)
        self._opens.inc()
        written = self._write_extents(client, path, offset, data)
        self.namespace[path] = max(self.namespace[path], offset + len(data))
        return written

    def read_path(self, client: Actor, path: str, offset: int = 0,
                  nbytes: int = -1) -> bytes:
        """Read ``nbytes`` at ``offset``; fans out across owning shards
        and completes when the slowest involved shard finishes."""
        size = self.size_of(path)
        self._opens.inc()
        if nbytes < 0:
            nbytes = size - offset
        nbytes = max(0, min(nbytes, size - offset))
        if nbytes == 0:
            return b""
        return self._read_extents(client, path, offset, nbytes)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_many(self, client: Actor, op: str,
                       plan: Dict[int, Tuple[int, Callable[[Actor], object]]]
                       ) -> Dict[int, object]:
        """Run one closure per shard, all arriving at the client's time;
        the client resumes at the latest completion.  Returns per-shard
        results."""
        arrival = client.time
        results: Dict[int, object] = {}
        finish = arrival
        for shard_id in sorted(plan):
            nbytes, fn = plan[shard_id]
            worker = self.nodes[shard_id].actor
            worker.sleep_until(arrival)
            start = worker.time
            results[shard_id] = fn(worker)
            done = worker.time
            finish = max(finish, done)
            obs.event(EV_ROUTE_DISPATCH, done, shard=shard_id, op=op,
                      client=client.name, nbytes=nbytes,
                      wait=start - arrival, service=done - start)
            requests, moved, wait = self._routes.get((shard_id, op)) \
                or self._bind_route(shard_id, op)
            requests.inc()
            moved.inc(nbytes)
            wait.observe(start - arrival)
        fanout = self._fanout.get(op)
        if fanout is None:
            fanout = self._fanout[op] = obs.histogram(
                "cluster_fanout_width",
                "shards touched per routed request", ("op",),
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0)).labels(op=op)
        fanout.observe(float(len(plan)))
        client.sleep_until(finish)
        return results

    def _bind_route(self, shard_id: int, op: str) -> tuple:
        series = self._routes[(shard_id, op)] = (
            obs.counter("cluster_route_requests_total",
                        "extent requests dispatched to shards",
                        ("shard", "op")).labels(shard=shard_id, op=op),
            obs.counter("cluster_route_bytes_total",
                        "bytes moved through the router",
                        ("shard", "op")).labels(shard=shard_id, op=op),
            obs.histogram("cluster_route_wait_seconds",
                          "time a routed request queued behind its "
                          "shard's timeline", ("op",)).labels(op=op))
        return series

    def _write_extents(self, client: Actor, path: str, offset: int,
                       data: bytes) -> int:
        by_shard: Dict[int, List[Tuple[str, int, bytes]]] = {}
        view = memoryview(data)
        pos = 0
        for idx, in_ext, take in self._extents(offset, len(data)):
            key = extent_key(path, idx)
            shard_id = self.shard_of(key)
            chunk = bytes(view[pos:pos + take])
            by_shard.setdefault(shard_id, []).append((key, in_ext, chunk))
            self.placement[key] = shard_id
            pos += take

        def make_writer(shard_id: int, parts: List[Tuple[str, int, bytes]]
                        ) -> Callable[[Actor], int]:
            node = self.nodes[shard_id]

            def run(worker: Actor) -> int:
                done = 0
                for key, in_ext, chunk in parts:
                    if in_ext == 0 and node.objects.get(key) in (
                            None, len(chunk)):
                        done += node.write_object(worker, key, chunk)
                    else:
                        # Sub-extent overwrite: splice into the object.
                        old = node.read_object(worker, key) \
                            if node.has_object(key) else b""
                        img = bytearray(max(len(old), in_ext + len(chunk)))
                        img[:len(old)] = old
                        img[in_ext:in_ext + len(chunk)] = chunk
                        done += node.write_object(worker, key, bytes(img))
                return done

            return run

        plan = {sid: (sum(len(c) for _k, _o, c in parts),
                      make_writer(sid, parts))
                for sid, parts in by_shard.items()}
        results = self._dispatch_many(client, "write", plan)
        return sum(results.values())

    def _read_extents(self, client: Actor, path: str, offset: int,
                      nbytes: int) -> bytes:
        holes: List[int] = []  # per piece: zero bytes after the shard's part
        by_shard: Dict[int, List[Tuple[int, str, int, int]]] = {}
        for order, (idx, in_ext, take) in enumerate(
                self._extents(offset, nbytes)):
            key = extent_key(path, idx)
            shard_id = self.placement.get(key)
            # A stripe never written, or the unwritten tail of a short
            # one, is a hole: it reads as zeros with no shard I/O.
            have = 0 if shard_id is None else max(0, min(
                take, self.nodes[shard_id].objects.get(key, 0) - in_ext))
            holes.append(take - have)
            if have:
                by_shard.setdefault(shard_id, []).append(
                    (order, key, in_ext, have))

        def make_reader(shard_id: int,
                        parts: List[Tuple[int, str, int, int]]
                        ) -> Callable[[Actor], Dict[int, bytes]]:
            node = self.nodes[shard_id]

            def run(worker: Actor) -> Dict[int, bytes]:
                out: Dict[int, bytes] = {}
                for order, key, in_ext, take in parts:
                    out[order] = node.read_object(worker, key, in_ext, take)
                return out

            return run

        chunks: Dict[int, bytes] = {}
        if by_shard:
            plan = {sid: (sum(p[3] for p in parts), make_reader(sid, parts))
                    for sid, parts in by_shard.items()}
            for per_shard in self._dispatch_many(client, "read",
                                                 plan).values():
                chunks.update(per_shard)
        out: List[bytes] = []
        for order, hole in enumerate(holes):
            if order in chunks:
                out.append(chunks[order])
            if hole:
                out.append(bytes(hole))
        return b"".join(out)

    # -- maintenance views -------------------------------------------------------

    def extents_of(self, path: str) -> List[str]:
        """Every placed extent key of ``path``, in stripe order."""
        size = self.size_of(path)
        n = (size + self.stripe_bytes - 1) // self.stripe_bytes
        return [extent_key(path, i) for i in range(n)]

    def makespan(self) -> float:
        """The latest shard timeline (the cluster's completion time)."""
        return max(node.actor.time for node in self.nodes.values())
