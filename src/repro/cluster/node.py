"""One cluster shard: a complete single-node HighLight stack.

A :class:`ClusterNode` owns everything the pre-cluster repo called "the
system": a SCSI bus, an RZ57-class disk partition, an HP 6300-class
jukebox, a :class:`~repro.core.highlight.HighLightFS` with its segment
cache, block-map driver, tertiary request scheduler and service process,
a :class:`~repro.core.migrator.Migrator`, and (optionally) the PR 5
replica + fault-recovery machinery.  Shards are shared-nothing: no
device, store, or filesystem object is ever reachable from another
shard — the :class:`~repro.cluster.router.ClusterRouter` is the only
sanctioned way to address a foreign shard's data (rule HL014).

Each node runs on its own :class:`~repro.sim.actor.Actor` ("shard N's
service timeline"); the router joins these timelines conservatively, and
the ``cluster`` bench scenario drives them under the
:class:`repro.sim.scheduler.Scheduler` so cross-shard parallelism is
modeled the same way cross-actor contention always has been.

Namespace convention: the router stores one LFS file per placed extent,
``/obj/<mangled key>``, under the shard-local ``/obj`` directory.  The
node tracks which extents it has migrated to its tertiary tier so a
cross-shard move can restore the extent's hierarchy level on the
destination shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.highlight import HighLightConfig
from repro.core.replicas import ReplicaManager
from repro.core.stack import make_highlight, preload_write_volume
from repro.faults import FaultManager
from repro.faults.health import VolumeHealth
from repro.sim.actor import Actor
from repro.util.units import MB

__all__ = ["ClusterNode", "OBJ_DIR", "obj_path"]

#: Shard-local directory holding the router's extent objects.
OBJ_DIR = "/obj"

#: Default per-shard geometry: deliberately compact (a cluster bench
#: builds up to eight of these), but with enough platters that replicas,
#: migration, and repair all have somewhere to go.
DEFAULT_PARTITION_BYTES = 48 * MB
DEFAULT_N_PLATTERS = 6
DEFAULT_PLATTER_BYTES = 4 * MB


def obj_path(key: str) -> str:
    """The shard-local LFS path for an extent key.

    Keys are router-generated (``"<path>#<index>"``); mangling squeezes
    them into one directory entry name.
    """
    return f"{OBJ_DIR}/{key.replace('/', '_')}"


class ClusterNode:
    """A shard id plus the full single-node stack that serves it."""

    def __init__(self, shard_id: int,
                 partition_bytes: int = DEFAULT_PARTITION_BYTES,
                 n_platters: int = DEFAULT_N_PLATTERS,
                 platter_bytes: int = DEFAULT_PLATTER_BYTES,
                 config: Optional[HighLightConfig] = None,
                 replicate: bool = False) -> None:
        self.shard_id = shard_id
        # ``actor`` is the shard's service timeline.  It starts at 0 like
        # every other shard's: the cluster shares one virtual time axis.
        bed = make_highlight(partition_bytes, n_platters=n_platters,
                             platter_constraint=platter_bytes,
                             config=config, actor=Actor(f"shard{shard_id}"))
        self.actor, self.disk, self.jukebox = bed.app, bed.disk, bed.jukebox
        self.fs, self.migrator = bed.fs, bed.migrator
        self.replicas: Optional[ReplicaManager] = None
        self.faults: Optional[FaultManager] = None
        if replicate:
            self.replicas = ReplicaManager(self.fs, copies=1)
            self.faults = FaultManager(self.fs)
        # Start with the first platter loaded and the write drive pinned,
        # the same drive allocation every bench bed uses.
        preload_write_volume(bed)
        self.fs.mkdir(OBJ_DIR, actor=self.actor)
        #: key -> byte size of every extent object this shard holds.
        self.objects: Dict[str, int] = {}
        #: Extent keys whose data lives on this shard's tertiary tier.
        self.migrated: Set[str] = set()

    # -- the object surface (what the router and coordinator call) -------------

    def write_object(self, actor: Actor, key: str, data: bytes) -> int:
        """Store (or overwrite) one extent object; returns bytes written."""
        written = self.fs.write_path(obj_path(key), data, actor=actor)
        self.objects[key] = len(data)
        return written

    def read_object(self, actor: Actor, key: str, offset: int = 0,
                    nbytes: int = -1) -> bytes:
        """Read an extent object (demand path: faults through the block
        map into the segment cache exactly like any file read)."""
        return self.fs.read_path(obj_path(key), offset, nbytes, actor=actor)

    def delete_object(self, actor: Actor, key: str) -> None:
        """Drop an extent object (the source side of a cross-shard move)."""
        self.fs.unlink(obj_path(key), actor=actor)
        self.objects.pop(key, None)
        self.migrated.discard(key)

    def has_object(self, key: str) -> bool:
        return key in self.objects

    def migrate_object(self, actor: Actor, key: str) -> None:
        """Move one extent object down to this shard's tertiary tier."""
        self.migrator.migrate_file(obj_path(key), actor, unit_tag=key)
        self.migrated.add(key)

    def adopt_object(self, actor: Actor, key: str, data: bytes,
                     tertiary: bool) -> None:
        """Store an extent moved in from another shard at the level it
        had there: a tertiary extent is migrated, sealed, written out
        and checkpointed before the source copy goes.  The last three
        steps must stay the calls ``NodeBackend.flush`` makes, in its
        order (this package may not import the front end)."""
        self.write_object(actor, key, data)
        if tertiary:
            self.migrate_object(actor, key)
            self.migrator.flush(actor)
            self.fs.sched.pump(actor)
            self.fs.checkpoint(actor)

    # -- health ------------------------------------------------------------------

    def serving_volumes(self) -> List[int]:
        """Volume ids of this shard still serving I/O."""
        out = []
        for vid in sorted(self.jukebox.volumes):
            vol = self.jukebox.volumes[vid]
            if vol.health.serving:
                out.append(vid)
        return out

    def degraded(self) -> bool:
        """True if any of this shard's volumes stopped serving."""
        return any(not self.jukebox.volumes[vid].health.serving
                   for vid in self.jukebox.volumes)

    def quarantine_volume(self, volume_id: int, t: float,
                          kind: str = "operator") -> VolumeHealth:
        """Force-quarantine one volume (the bench's mid-run fault lever).

        Requires the fault machinery (``replicate=True``) so reads of
        affected segments degrade to replicas instead of failing.
        """
        if self.faults is None:
            raise RuntimeError(
                f"shard {self.shard_id} has no fault manager; build the "
                "node with replicate=True to quarantine volumes")
        return self.faults.health.record_error(volume_id, t,
                                               permanent=True, kind=kind)
