"""HighLight: a log-structured file system for tertiary storage management.

A complete reproduction of John T. Kohl's USENIX Winter 1993 paper
(UC Berkeley, Project Sequoia 2000), implemented from scratch in Python
over calibrated device simulators.

Package map
-----------

``repro.sim``
    Deterministic virtual-time kernel (actors, timeline resources,
    scheduler) replacing the paper's kernel/user-process concurrency.
``repro.blockdev``
    Data-bearing device models calibrated to the paper's Table 5:
    RZ57/RZ58/HP7958A disks, the HP 6300 MO changer, Metrum tape and
    Sony WORM jukeboxes, SCSI buses.
``repro.footprint``
    Sequoia's abstract robotic-storage interface.
``repro.lfs``
    The 4.4BSD LFS substrate: segmented log, ifile, inodes, directories,
    buffer cache, segment writer, cleaner, checkpoints, roll-forward
    recovery, and a consistency checker.
``repro.ffs``
    The clustered-FFS baseline used in Tables 2-3.
``repro.core``
    HighLight itself: the unified block address space, block-map driver,
    segment cache, tsegfile, staging segments, migrator, service and I/O
    processes, the migration-policy zoo, and the future-work extensions
    (tertiary cleaner, delayed write-out, replicas, adaptive cache
    sizing, automigration daemon).
``repro.workloads``
    Workload generators (the large-object benchmark, archival traces,
    project trees, checkpoints, database page mixes).
``repro.frontend``
    The multi-tenant session layer: one ``Client`` API (handles,
    per-tenant budgets, token-bucket admission) over interchangeable
    single-node and cluster backends, plus the seeded workload
    generator and SLO engine behind the ``frontend`` bench scenario.
``repro.bench``
    Testbed construction and runners regenerating every paper table and
    figure (``python -m repro.bench``).

Quickstart
----------

>>> from repro.bench import harness
>>> bed = harness.make_highlight()
>>> harness.preload_write_volume(bed)
>>> _ = bed.fs.write_path("/hello", b"tertiary-bound bytes")
>>> bed.fs.checkpoint()
>>> bed.app.sleep(3600)
>>> _ = bed.migrator.migrate_file("/hello")
>>> _ = bed.migrator.flush()
>>> bed.fs.read_path("/hello")
b'tertiary-bound bytes'
"""

__version__ = "1.0.0"

#: Curated re-exports: the assembled filesystem, the migrator, the
#: policy zoo, and the fault/recovery subsystem are importable straight
#: from ``repro`` (resolved lazily via PEP 562 so importing ``repro``
#: stays cheap and cycle-free — nearly every submodule does
#: ``from repro import obs`` at import time).
_EXPORTS = {
    # the assembled filesystem
    "HighLightFS": "repro.core.highlight",
    "HighLightConfig": "repro.core.highlight",
    # migration machinery
    "Migrator": "repro.core.migrator",
    "MigrationPipeline": "repro.core.migrator",
    "ReplicaManager": "repro.core.replicas",
    # the policy zoo
    "STPPolicy": "repro.core.policies",
    "AccessTimePolicy": "repro.core.policies",
    "NamespacePolicy": "repro.core.policies",
    "BlockRangePolicy": "repro.core.policies",
    "AccessRangeTracker": "repro.core.policies",
    "LRUEjection": "repro.core.policies",
    "RandomEjection": "repro.core.policies",
    "LeastWorthyEjection": "repro.core.policies",
    # the multi-tenant session front end
    "Client": "repro.frontend",
    "TenantBudget": "repro.frontend",
    "open_node": "repro.frontend",
    "open_cluster": "repro.frontend",
    # fault injection & recovery
    "FaultPlan": "repro.faults",
    "FaultSpec": "repro.faults",
    "FaultInjector": "repro.faults",
    "FaultManager": "repro.faults",
    "RetryPolicy": "repro.faults",
    "RetryClassPolicy": "repro.faults",
    "RepairDaemon": "repro.faults",
    "VolumeHealth": "repro.faults",
    "HealthRegistry": "repro.faults",
}

__all__ = sorted(_EXPORTS) + [
    "sim", "blockdev", "footprint", "faults", "frontend", "lfs", "ffs",
    "core", "workloads", "bench", "errors", "obs", "util",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for the next access
    return value

