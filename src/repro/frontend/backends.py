"""The two storage topologies behind one set of verbs.

Lustre keeps one narrow client protocol over interchangeable server
stacks; this module does the same for the repo's two data planes:

* :class:`NodeBackend` — a single :class:`~repro.core.highlight.HighLightFS`
  stack (disk cache + jukebox) with its
  :class:`~repro.core.service.ServiceProcess`, migrator, and
  :class:`~repro.sched.TertiaryScheduler`;
* :class:`ClusterBackend` — a sharded
  :class:`~repro.cluster.router.ClusterRouter` striping files across N
  shared-nothing HighLight stacks.

A :class:`~repro.frontend.session.Client` drives either through the
same namespace, data and control verbs (listed in docs/FRONTEND.md), so
one workload script runs unchanged on both topologies (the `frontend`
bench gate).  This module is the
*adapter* layer — the only part of ``repro.frontend`` allowed to touch
``fs.read_path``/``fs.write_path`` directly (rule HL015 exempts it).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FileNotFound, InvalidArgument
from repro.frontend.session import Client
from repro.sched import CLASS_WRITEOUT
from repro.sim.actor import Actor

__all__ = ["ClusterBackend", "NodeBackend", "open_cluster", "open_node"]


class NodeBackend:
    """One HighLight stack: service process, migrator, scheduler.

    The per-stack control verbs (``migrate`` through ``drop_caches``)
    are defined here only; :class:`ClusterBackend` runs them per shard.
    """

    name = "node"

    def __init__(self, fs, migrator=None) -> None:
        # Accept a Testbed-shaped object (harness) or the fs itself;
        # the migrator rides on the testbed, not the filesystem.
        self.fs = getattr(fs, "fs", fs)
        self.migrator = migrator if migrator is not None \
            else getattr(fs, "migrator", None)

    def exists(self, actor: Actor, path: str) -> bool:
        try:
            self.fs.lookup(path, actor)
        except FileNotFound:
            return False
        return True

    def size_of(self, actor: Actor, path: str) -> int:
        return self.fs.stat(path, actor).size

    def create(self, actor: Actor, path: str) -> None:
        self._ensure_parents(actor, path)
        self.fs.create(path, actor=actor)

    def _ensure_parents(self, actor: Actor, path: str) -> None:
        """Create missing ancestor directories (namespace control
        plane, same as the router's flat namespace needing none)."""
        parts = path.strip("/").split("/")[:-1]
        prefix = ""
        for part in parts:
            prefix = f"{prefix}/{part}"
            try:
                self.fs.lookup(prefix)
            except FileNotFound:
                self.fs.mkdir(prefix, actor=actor)

    def read(self, actor: Actor, path: str, offset: int,
             nbytes: int) -> bytes:
        return self.fs.read_path(path, offset, nbytes, actor=actor)

    def write(self, actor: Actor, path: str, offset: int,
              data: bytes) -> int:
        return self.fs.write_path(path, data, offset=offset, actor=actor)

    def migrate(self, actor: Actor, path: str) -> None:
        if self.migrator is None:
            raise InvalidArgument("filesystem has no migrator attached")
        # unit_tag=path: the hint table then maps the file's tertiary
        # segments back to it, for a unit prefetcher to read.
        self.migrator.migrate_file(path, actor, unit_tag=path)

    def seal(self, actor: Actor) -> None:
        """Seal partial staging so queued write-outs cover everything."""
        if self.migrator is not None:
            self.migrator.flush(actor)

    def queued_writeouts(self) -> int:
        return self.fs.sched.queued(CLASS_WRITEOUT)

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        return self.fs.sched.pump(actor, limit)

    def flush(self, actor: Actor) -> None:
        """Seal staging, drain the scheduler, checkpoint."""
        self.seal(actor)
        self.pump(actor)
        self.fs.checkpoint(actor)

    def drop_caches(self, actor: Actor) -> None:
        """Eject every cache line and forget in-memory file state, so the
        next read pays the full tertiary demand-fetch path."""
        self.fs.service.flush_cache(actor)
        self.fs.drop_caches(actor, drop_inodes=True)


class ClusterBackend:
    """A sharded cluster behind the router's striped namespace.

    Background control verbs run :class:`NodeBackend`'s on each owning
    shard's own actor (the router's conservative-join timing model); the
    client actor is only charged for data-plane transfers.
    """

    name = "cluster"

    def __init__(self, router) -> None:
        self.router = router

    def _shards(self):
        """``(node, NodeBackend(node))`` in shard-id order, read at call
        time because a rebalance changes membership."""
        nodes = self.router.nodes
        return [(nodes[sid], NodeBackend(nodes[sid])) for sid in sorted(nodes)]

    def _owners(self, actor: Actor, path: str):
        """``(node, key)`` for each extent of ``path``, the owning
        shard's actor joined to ``actor``."""
        router = self.router
        for key in router.extents_of(path):
            node = router.nodes[router.shard_of(key)]
            node.actor.sleep_until(actor.time)
            yield node, key

    def exists(self, actor: Actor, path: str) -> bool:
        return path in self.router.namespace

    def size_of(self, actor: Actor, path: str) -> int:
        return self.router.size_of(path)

    def create(self, actor: Actor, path: str) -> None:
        self.router.namespace.setdefault(path, 0)

    def read(self, actor: Actor, path: str, offset: int,
             nbytes: int) -> bytes:
        return self.router.read_path(actor, path, offset, nbytes)

    def write(self, actor: Actor, path: str, offset: int,
              data: bytes) -> int:
        return self.router.write_path(actor, path, data, offset)

    def migrate(self, actor: Actor, path: str) -> None:
        for node, key in self._owners(actor, path):
            node.migrate_object(node.actor, key)

    def seal(self, actor: Actor) -> None:
        for node, backend in self._shards():
            backend.seal(node.actor)

    def queued_writeouts(self) -> int:
        return sum(backend.queued_writeouts() for _, backend in self._shards())

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        count = 0
        for node, backend in self._shards():
            room = None if limit is None else limit - count
            if room is not None and room <= 0:
                break
            count += backend.pump(node.actor, room)
        return count

    def flush(self, actor: Actor) -> None:
        for node, backend in self._shards():
            backend.flush(node.actor)

    def drop_caches(self, actor: Actor) -> None:
        for node, backend in self._shards():
            backend.drop_caches(node.actor)


def open_node(fs, migrator=None, default_budget=None):
    """A :class:`~repro.frontend.session.Client` over one HighLight
    stack.  ``fs`` may be a ``HighLightFS`` or any testbed object with
    ``.fs`` (and ``.migrator``) attributes."""
    return Client(NodeBackend(fs, migrator), default_budget=default_budget)


def open_cluster(router, default_budget=None):
    """A :class:`~repro.frontend.session.Client` over a sharded
    :class:`~repro.cluster.router.ClusterRouter`."""
    return Client(ClusterBackend(router), default_budget=default_budget)
