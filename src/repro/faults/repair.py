"""The repair daemon: drains quarantined volumes, then retires them.

A quarantined volume still *holds* data — the health model only fenced
I/O to it.  The repair daemon restores redundancy in the background
(paper §10 names replicas as the media-failure answer; this is the
machinery that re-establishes them):

1. every replica location on the quarantined volume is dropped from the
   replica catalogue (``fs.replicas``);
2. every *live* primary segment on it is re-homed — the catalogue reads
   its image (``ReplicaManager.read_image``: the disk cache if present,
   else the closest healthy copy) and mints a fresh copy on a healthy
   volume (closest-copy reads then serve it without ever touching the
   dead medium);
3. the volume is marked full (the allocator skips it) and RETIRED.

All repair I/O runs under the ``repair`` retry class and is charged to
the Table 4 categories it spends time in.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.faults.retry import CLASS_REPAIR


class RepairDaemon:
    """Re-replicates segments off quarantined volumes and retires them."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self.health = fs.health
        self.segments_rehomed = 0
        self.volumes_retired = 0

    def run_once(self, actor) -> int:
        """One repair sweep; returns the number of segments re-homed."""
        before = self.segments_rehomed
        for vol_id in self.health.quarantined():
            vol_idx = self._vol_index(vol_id)
            if vol_idx is None:
                self.health.retire(vol_id, actor.time)
                continue
            with self.fs.sched.running(CLASS_REPAIR):
                self._drain_volume(actor, vol_idx)
            self.fs.tsegfile.mark_volume_full(vol_idx)
            self.health.retire(vol_id, actor.time)
            self.volumes_retired += 1
        return self.segments_rehomed - before

    # -- one volume ----------------------------------------------------------

    def _vol_index(self, volume_id: int) -> Optional[int]:
        for idx, meta in enumerate(self.fs.tsegfile.volumes):
            if meta.volume_id == volume_id:
                return idx
        return None

    def _drain_volume(self, actor, vol_idx: int) -> None:
        self._drop_replicas_on(vol_idx)
        meta = self.fs.tsegfile.volumes[vol_idx]
        for seg_in_vol in range(meta.next_free):
            use = self.fs.tsegfile.seguse(vol_idx, seg_in_vol)
            if use.live_bytes <= 0:
                continue  # clean, or a replica (replicas carry no live bytes)
            tsegno = self.fs.aspace.tertiary_segno(vol_idx, seg_in_vol)
            if self._rehome(actor, tsegno):
                self.segments_rehomed += 1
                obs.counter("repair_segments_rehomed_total",
                            "live segments re-replicated off quarantined "
                            "volumes").inc()
            else:
                obs.counter("repair_unrecoverable_total",
                            "live segments with no healthy copy left to "
                            "repair from").inc()

    def _drop_replicas_on(self, vol_idx: int) -> None:
        if self.fs.replicas is None:
            return
        for locations in self.fs.replicas.catalog.values():
            stale = [loc for loc in locations if loc[0] == vol_idx]
            for loc in stale:
                locations.remove(loc)

    # -- one segment ---------------------------------------------------------

    def _rehome(self, actor, tsegno: int) -> bool:
        """Mint one fresh healthy copy of ``tsegno``; True on success."""
        replicas = self.fs.replicas
        if replicas is None:
            return False  # no catalogue to record a new copy in
        image = replicas.read_image(actor, tsegno)
        return image is not None and replicas.mint(actor, tsegno, image)
