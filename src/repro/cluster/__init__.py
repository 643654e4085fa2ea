"""``repro.cluster``: shard the HighLight address space across N nodes.

The single-node stack manages one disk farm and one jukebox; this
package scales it out the way Lustre and openvstorage scale out a
filesystem — many complete storage stacks ("shards"), each owning a
slice of the namespace, behind a thin routing layer:

* :class:`~repro.cluster.ring.HashRing` — seeded consistent hashing
  with virtual nodes; deterministic placement, minimal movement on
  membership changes.
* :class:`~repro.cluster.node.ClusterNode` — one shard: a full
  HighLight stack (LFS + segment cache + scheduler + Footprint +
  optional replica/fault machinery) on its own actor timeline.
* :class:`~repro.cluster.router.ClusterRouter` — the routing layer:
  ``read_path``, ``write_path`` and ``size_of`` stripe files into
  extents, route each extent to its owning shard, and fan multi-
  extent reads out across shards in parallel virtual time.
* :class:`~repro.cluster.migrate.MigrationCoordinator` — cross-shard
  segment movement when the ring changes (shard add/remove), run under
  the repair request class.
* :func:`~repro.cluster.rollup.cluster_rollup` — per-shard + cluster
  metrics for obs snapshots.

See docs/CLUSTER.md for the design and failure semantics; the
``cluster`` bench scenario (``python -m repro.bench --scenario
cluster``) is the scaling acceptance gate.
"""

from repro.cluster.migrate import (EV_SHARD_MIGRATE, MigrationCoordinator,
                                   RebalanceReport)
from repro.cluster.node import ClusterNode, obj_path
from repro.cluster.ring import HashRing
from repro.cluster.router import (EV_ROUTE_DISPATCH, ClusterRouter,
                                  extent_key)
from repro.cluster.rollup import cluster_rollup

__all__ = [
    "ClusterNode",
    "ClusterRouter",
    "EV_ROUTE_DISPATCH",
    "EV_SHARD_MIGRATE",
    "HashRing",
    "MigrationCoordinator",
    "RebalanceReport",
    "cluster_rollup",
    "extent_key",
    "obj_path",
]
