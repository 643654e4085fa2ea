"""The multi-tenant client front end (the repo's one data-plane door).

The paper's service process mediates demand/prefetch/write-out traffic
for a single anonymous caller; production hierarchical storage managers
(CASTOR's stager, Lustre's client protocol) put a session layer with
admission control in front.  This package is that layer:

* :mod:`~repro.frontend.session` — :class:`Client` (open/read/write/
  close/stat over :class:`Handle`, the one open-file record),
  per-tenant :class:`TenantBudget` admission (token-bucket pacing, hard
  caps, scheduler queue-depth hooks);
* :mod:`~repro.frontend.backends` — two adapters with one verb list:
  :func:`open_node` (a single HighLight stack, whose
  :class:`NodeBackend` defines every per-stack control verb) and
  :func:`open_cluster` (the sharded router, running those verbs per
  shard);
* :mod:`~repro.frontend.load` — seeded 10k–1M-client workload
  generation (Zipf popularity, diurnal curves) and virtual-time replay;
* :mod:`~repro.frontend.slo` — per-tenant p50/p99/goodput/fairness
  reporting from ``frontend_request`` trace events.

See docs/FRONTEND.md.
"""

from repro.frontend.backends import (ClusterBackend, NodeBackend,
                                     open_cluster, open_node)
from repro.frontend.session import (Client, DEFAULT_TENANT, FileStat, Handle,
                                    Tenant, TenantBudget, TokenBucket)

__all__ = [
    "Client", "ClusterBackend", "DEFAULT_TENANT", "FileStat", "Handle",
    "NodeBackend", "Tenant", "TenantBudget", "TokenBucket", "open_cluster",
    "open_node",
]
