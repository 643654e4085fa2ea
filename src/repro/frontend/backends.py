"""The two storage topologies behind one :class:`Backend` protocol.

Lustre keeps one narrow client protocol over interchangeable server
stacks; this module does the same for the repo's two data planes:

* :class:`NodeBackend` — a single :class:`~repro.core.HighLightFS`
  stack (disk cache + jukebox) with its
  :class:`~repro.core.service.ServiceProcess`, migrator, and
  :class:`~repro.sched.TertiaryScheduler`;
* :class:`ClusterBackend` — a sharded
  :class:`~repro.cluster.router.ClusterRouter` striping files across N
  shared-nothing HighLight stacks.

A :class:`~repro.frontend.session.Client` drives either through the
same seven data/control verbs, so one workload script runs unchanged on
both topologies (the `frontend` bench gate).  This module is the
*adapter* layer — the only part of ``repro.frontend`` allowed to touch
``fs.read_path``/``fs.write_path`` directly (rule HL015 exempts it).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import FileNotFound, InvalidArgument
from repro.sched import CLASS_WRITEOUT
from repro.sim.actor import Actor

__all__ = ["Backend", "ClusterBackend", "NodeBackend", "open_cluster",
           "open_node"]


class Backend:
    """What a :class:`~repro.frontend.session.Client` needs from a
    storage stack.  Data plane: ``read``/``write``; control plane:
    ``migrate``/``seal``/``prefetch``/``pump``/``flush``/
    ``drop_caches``; namespace: ``exists``/``size_of``/``create``.
    """

    name = "backend"

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def size_of(self, path: str) -> int:
        """File size in bytes; raises FileNotFound for absent paths."""
        raise NotImplementedError

    def create(self, actor: Actor, path: str) -> None:
        raise NotImplementedError

    def read(self, actor: Actor, path: str, offset: int,
             nbytes: int) -> bytes:
        raise NotImplementedError

    def write(self, actor: Actor, path: str, offset: int,
              data: bytes) -> int:
        raise NotImplementedError

    def migrate(self, actor: Actor, path: str) -> None:
        """Stage ``path`` for tertiary storage (tagged for prefetch)."""
        raise NotImplementedError

    def seal(self, actor: Actor) -> None:
        """Seal partial staging so queued write-outs cover everything."""
        raise NotImplementedError

    def prefetch(self, actor: Actor, path: str,
                 cap: Optional[int] = None) -> Tuple[int, int, int]:
        """Submit background prefetches for ``path``'s migrated
        segments, each refused once ``cap`` prefetches are queued ahead
        of it; returns ``(submitted, attempted, capped)``."""
        return (0, 0, 0)

    def queued_writeouts(self) -> int:
        return 0

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        return 0

    def flush(self, actor: Actor) -> None:
        raise NotImplementedError

    def drop_caches(self, actor: Actor) -> None:
        raise NotImplementedError


class NodeBackend(Backend):
    """One HighLight stack: service process, migrator, scheduler."""

    name = "node"

    def __init__(self, fs, migrator=None) -> None:
        # Accept a Testbed-shaped object (harness) or the fs itself;
        # the migrator rides on the testbed, not the filesystem.
        self.fs = getattr(fs, "fs", fs)
        self.migrator = migrator if migrator is not None \
            else getattr(fs, "migrator", None)

    def exists(self, path: str) -> bool:
        try:
            self.fs.lookup(path)
        except FileNotFound:
            return False
        return True

    def size_of(self, path: str) -> int:
        return self.fs.stat(path).size

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
        # segments back to it, which is what prefetch() walks.
        self.migrator.migrate_file(path, actor, unit_tag=path)

    def seal(self, actor: Actor) -> None:
        if self.migrator is not None:
            self.migrator.flush(actor)

    def prefetch(self, actor: Actor, path: str,
                 cap: Optional[int] = None) -> Tuple[int, int, int]:
        if self.migrator is None:
            return (0, 0, 0)
        sched = self.fs.sched
        tsegnos = sorted(t for t, tag in self.migrator.hint_table.items()
                         if tag == path)
        capped = sched.capped_rejects
        submitted = sum(1 for tsegno in tsegnos
                        if sched.submit_prefetch(actor, tsegno, cap))
        return (submitted, len(tsegnos), sched.capped_rejects - capped)

    def queued_writeouts(self) -> int:
        return self.fs.sched.queued(CLASS_WRITEOUT)

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        return self.fs.sched.pump(actor, limit)

    def flush(self, actor: Actor) -> None:
        self.seal(actor)
        self.pump(actor)
        self.fs.checkpoint(actor)

    def drop_caches(self, actor: Actor) -> None:
        self.fs.service.flush_cache(actor)
        self.fs.drop_caches(actor, drop_inodes=True)


class ClusterBackend(Backend):
    """A sharded cluster behind the router's striped namespace.

    Background control verbs fan out to the owning shards on their own
    actors (the router's conservative-join timing model); the client
    actor is only charged for data-plane transfers.
    """

    name = "cluster"

    def __init__(self, router) -> None:
        self.router = router

    def _nodes(self):
        return [self.router.nodes[sid] for sid in sorted(self.router.nodes)]

    def exists(self, path: str) -> bool:
        return path in self.router.namespace

    def size_of(self, path: str) -> int:
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
        for key in self.router.extents_of(path):
            node = self.router.nodes[self.router.shard_of(key)]
            node.actor.sleep_until(actor.time)
            node.migrate_object(node.actor, key)

    def seal(self, actor: Actor) -> None:
        for node in self._nodes():
            node.seal(node.actor)

    def prefetch(self, actor: Actor, path: str,
                 cap: Optional[int] = None) -> Tuple[int, int, int]:
        submitted = attempted = capped = 0
        for key in self.router.extents_of(path):
            node = self.router.nodes[self.router.shard_of(key)]
            sched = node.fs.sched
            tsegnos = sorted(t for t, tag in node.migrator.hint_table.items()
                             if tag == key)
            attempted += len(tsegnos)
            before = sched.capped_rejects
            for tsegno in tsegnos:
                node.actor.sleep_until(actor.time)
                if sched.submit_prefetch(node.actor, tsegno, cap):
                    submitted += 1
            capped += sched.capped_rejects - before
        return (submitted, attempted, capped)

    def queued_writeouts(self) -> int:
        return sum(node.fs.sched.queued(CLASS_WRITEOUT)
                   for node in self._nodes())

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        count = 0
        for node in self._nodes():
            room = None if limit is None else limit - count
            if room is not None and room <= 0:
                break
            count += node.fs.sched.pump(node.actor, room)
        return count

    def flush(self, actor: Actor) -> None:
        for node in self._nodes():
            node.flush(node.actor)

    def drop_caches(self, actor: Actor) -> None:
        for node in self._nodes():
            node.drop_caches(node.actor)


def open_node(fs, migrator=None, default_budget=None):
    """A :class:`~repro.frontend.session.Client` over one HighLight
    stack.  ``fs`` may be a ``HighLightFS`` or any testbed object with
    ``.fs`` (and ``.migrator``) attributes."""
    from repro.frontend.session import Client
    return Client(NodeBackend(fs, migrator), default_budget=default_budget)


def open_cluster(router, default_budget=None):
    """A :class:`~repro.frontend.session.Client` over a sharded
    :class:`~repro.cluster.router.ClusterRouter`."""
    from repro.frontend.session import Client
    return Client(ClusterBackend(router), default_budget=default_budget)
