"""Cross-shard migration: re-home extents when the ring changes shape.

Consistent hashing guarantees that adding or removing a shard re-owns
only the keys that land between the affected ring points; this module is
the machinery that physically moves those keys.  A move is a
whole-object transfer between two shared-nothing stacks:

1. the **source** shard demand-fetches the extent's segments (tertiary
   extents come up through the zero-copy ``read_refs`` fetch path — the
   segment image travels as borrowed refs, so the only per-byte copy is
   the buffer-cache assembly every local read already pays);
2. the **destination** shard writes the object into its own log and,
   if the extent lived on the source's tertiary tier, re-migrates it
   (the staging builder adopts refs, so this costs the same one
   staging-copy a local migrate does);
3. the source unlinks its copy.

All device I/O on both sides runs under the ``repair`` request class
(each shard's scheduler names it), so on a shard with a retry policy
attached a move inherits the repair retry budget rather than demand's.  The coordinator journals every move as a
``shard_migrate`` trace event and reports ring-vs-catalog deltas, moved
bytes, and the datapath copy-ledger cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.blockdev.datapath import bytes_copied_total
from repro.cluster.node import ClusterNode
from repro.cluster.router import ClusterRouter
from repro.errors import InvalidArgument
from repro.faults.retry import CLASS_REPAIR
from repro.sim.actor import Actor

__all__ = ["MigrationCoordinator", "RebalanceReport", "EV_SHARD_MIGRATE"]

#: One event per extent moved between shards.
EV_SHARD_MIGRATE = obs.register_event_type("shard_migrate")


@dataclass
class RebalanceReport:
    """What one ring change cost the cluster."""

    added: Optional[int] = None
    removed: Optional[int] = None
    moved_keys: List[str] = field(default_factory=list)
    moved_bytes: int = 0
    #: Host bytes the datapath copy ledger charged during the moves.
    copied_bytes: int = 0
    #: Keys that stayed where they were (the minimal-movement check).
    kept_keys: int = 0

    @property
    def moved(self) -> int:
        return len(self.moved_keys)


class MigrationCoordinator:
    """Drives cross-shard segment movement for one router's cluster."""

    def __init__(self, router: ClusterRouter) -> None:
        self.router = router
        self.moved_bytes = 0

    # -- membership changes ------------------------------------------------------

    def add_shard(self, node: ClusterNode, actor: Actor) -> RebalanceReport:
        """Join a new shard and re-home the keys it now owns."""
        router = self.router
        if node.shard_id in router.nodes:
            raise InvalidArgument(
                f"shard {node.shard_id!r} is already in the cluster")
        router.nodes[node.shard_id] = node
        router.ring.add_shard(node.shard_id)
        report = self.rebalance(actor)
        report.added = node.shard_id
        return report

    def remove_shard(self, shard_id: int, actor: Actor) -> RebalanceReport:
        """Drain a shard's keys to their new owners and drop it."""
        router = self.router
        if shard_id not in router.nodes:
            raise InvalidArgument(f"no shard {shard_id!r} in the cluster")
        if len(router.nodes) == 1:
            raise InvalidArgument("cannot remove the last shard")
        router.ring.remove_shard(shard_id)
        report = self.rebalance(actor)
        leftovers = [k for k, sid in router.placement.items()
                     if sid == shard_id]
        if leftovers:
            raise RuntimeError(
                f"rebalance left {len(leftovers)} keys on removed shard "
                f"{shard_id!r}: {sorted(leftovers)[:4]}...")
        del router.nodes[shard_id]
        report.removed = shard_id
        return report

    # -- the rebalance sweep -----------------------------------------------------

    def rebalance(self, actor: Actor) -> RebalanceReport:
        """Move every catalogued key whose ring owner changed."""
        router = self.router
        report = RebalanceReport()
        copied_before = bytes_copied_total()
        for key in sorted(router.placement):
            current = router.placement[key]
            target = router.ring.owner(key)
            if target == current:
                report.kept_keys += 1
                continue
            nbytes = self._move(actor, key, current, target)
            report.moved_keys.append(key)
            report.moved_bytes += nbytes
        report.copied_bytes = bytes_copied_total() - copied_before
        obs.gauge("cluster_rebalance_moved_keys",
                  "keys moved by the most recent rebalance").set(
                      report.moved)
        obs.gauge("cluster_rebalance_kept_keys",
                  "keys left in place by the most recent rebalance").set(
                      report.kept_keys)
        return report

    def _move(self, actor: Actor, key: str, src_id: int,
              dst_id: int) -> int:
        """Move one extent object ``src -> dst``; returns its byte size."""
        router = self.router
        src = router.nodes[src_id]
        dst = router.nodes[dst_id]
        was_tertiary = key in src.migrated
        # The move's device time is paid on the involved shards'
        # timelines; the coordinating actor joins both at the end.
        src.actor.sleep_until(actor.time)
        with src.fs.sched.running(CLASS_REPAIR):
            data = src.read_object(src.actor, key)
        dst.actor.sleep_until(src.actor.time)
        with dst.fs.sched.running(CLASS_REPAIR):
            dst.adopt_object(dst.actor, key, data, was_tertiary)
        with src.fs.sched.running(CLASS_REPAIR):
            src.delete_object(src.actor, key)
        actor.sleep_until(max(src.actor.time, dst.actor.time))
        router.placement[key] = dst_id
        self.moved_bytes += len(data)
        obs.event(EV_SHARD_MIGRATE, actor.time, key=key, src=src_id,
                  dst=dst_id, nbytes=len(data),
                  tertiary=was_tertiary)
        obs.counter("cluster_migrated_keys_total",
                    "extents moved between shards").inc()
        obs.counter("cluster_migrated_bytes_total",
                    "bytes moved between shards").inc(len(data))
        return len(data)
