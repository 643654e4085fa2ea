"""Segment replicas with closest-copy reads (paper §5.4, variant).

"A variant on this scheme is to maintain several segment replicas on
tertiary storage, and to have the staging code simply read the 'closest'
copy, where close means quickest access — whether that means seeking on a
volume already in a drive, or selecting a volume that will incur a
shorter seek ... This problem [of liveness bookkeeping] could be
sidestepped simply by not counting the replicas as live data."

:class:`ReplicaManager` is the one replica catalogue (tsegno -> replica
locations).  Constructing it attaches it as ``fs.replicas``; from then on
it *locates* every copy (:meth:`copies_of`, the healthy ones closest
first — the I/O server's demand fetch reads through that ranking),
*reads* a segment's image for copying (:meth:`read_image`: the cache
line, else the closest healthy copy) and *mints* every copy
(:meth:`mint`, called by :meth:`replicate` after each primary copy-out
and by the repair daemon when it re-homes a segment).  Replica segments
are allocated from the ordinary tsegfile volumes but their usage entries
carry no live bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.blockdev.datapath import materialize_refs
from repro.core.addressing import line_read
from repro.errors import DeviceError, EndOfMedium, PermanentDeviceError
from repro.sched.scheduler import CAT_FOOTPRINT_WRITE, CAT_IOSERVER_READ
from repro.sim.actor import Actor

#: (volume index, segment within the volume) of one copy.
Location = Tuple[int, int]


class ReplicaManager:
    """The replica catalogue: locates, reads and mints segment copies."""

    def __init__(self, fs, copies: int = 1) -> None:
        if copies < 1:
            raise ValueError("need at least one replica copy")
        self.fs = fs
        self.copies = copies
        #: primary tsegno -> [(volume index, seg in volume), ...]
        self.catalog: Dict[int, List[Location]] = {}
        self.replicas_written = 0
        #: Segment reads (demand fetches, repair sources) that a
        #: non-primary copy served.
        self.replica_reads = 0
        #: Segment reads re-served from another copy after a permanent
        #: failure of the first one tried.
        self.degraded_reads = 0
        fs.replicas = self

    # -- locate and read ----------------------------------------------------------

    def _serving(self, vol: int) -> bool:
        # A fenced volume (quarantined by the health registry — e.g. the
        # scrubber caught a checksum mismatch on it) is as unusable as
        # failed media: serving reads from it would hand back the very
        # bytes the quarantine distrusts.
        volume = self.fs.footprint.jukebox.volumes.get(
            self.fs.tsegfile.volumes[vol].volume_id)
        return volume is None or volume.health.serving

    def copies_of(self, tsegno: int) -> List[Location]:
        """Every *healthy* location holding ``tsegno``, closest first.

        Copies on a volume already loaded in a drive come first (no robot
        exchange); otherwise the primary precedes its replicas in
        catalogue order.  Replicas are also the paper's §10 answer to
        media failure, so a copy on a fenced volume is never offered.
        """
        fs = self.fs
        jukebox = fs.footprint.jukebox
        candidates = [fs.aspace.volume_of(tsegno)] + \
            self.catalog.get(tsegno, [])
        healthy = [c for c in candidates if self._serving(c[0])]
        return sorted(healthy, key=lambda c: jukebox.drive_holding(
            fs.tsegfile.volumes[c[0]].volume_id) is None)

    def read_image(self, actor: Actor, tsegno: int) -> Optional[bytes]:
        """The whole-segment image of ``tsegno``: from its cache line if
        resident (charged to ``ioserver_read``), else from the closest
        healthy copy through :meth:`IOServer.read_closest`; None when no
        healthy copy is left or every read failed."""
        fs = self.fs
        disk_segno = fs.cache.lookup(tsegno)
        if disk_segno is not None:
            t0 = actor.time
            image = line_read(fs.disk, actor, fs.aspace.seg_base(disk_segno),
                              fs.config.blocks_per_seg, fs.aspace)
            fs.ioserver.account.charge(CAT_IOSERVER_READ, actor.time - t0)
            return image
        if not self.copies_of(tsegno):
            return None  # every copy sits on fenced media
        try:
            refs, _vol_id = fs.ioserver.read_closest(actor, tsegno)
        except DeviceError:
            return None
        return materialize_refs(refs)

    # -- mint ---------------------------------------------------------------------

    def _pick_volume(self, exclude: Set[int]) -> Optional[int]:
        """A healthy volume with room, away from ``exclude``; search from
        the far end so copies stay away from the migration stream's
        consuming volume."""
        tseg = self.fs.tsegfile
        for vol in range(len(tseg.volumes) - 1, -1, -1):
            meta = tseg.volumes[vol]
            if vol in exclude or meta.marked_full \
                    or meta.next_free >= meta.nsegs \
                    or not self._serving(vol):
                continue
            return vol
        return None

    def mint(self, actor: Actor, tsegno: int, image) -> bool:
        """Write one more copy of ``tsegno`` (its whole-segment ``image``)
        and catalogue it; False when no volume can take it.

        End-of-medium is handled the way the primary write-out path does
        (§6.3): the volume is marked full and the next one is tried; a
        permanently failed target costs this attempt, not the caller.
        The Footprint write is charged to Table 4's ``footprint_write``.
        """
        fs = self.fs
        locations = self.catalog.setdefault(tsegno, [])
        tried = {fs.aspace.volume_of(tsegno)[0]} | {v for v, _s in locations}
        account = fs.ioserver.account
        while True:
            vol = self._pick_volume(tried)
            if vol is None:
                return False
            tried.add(vol)
            vol, seg_in_vol = fs.tsegfile.alloc_segment_on(vol)
            # "Not counting the replicas as live data": release the
            # liveness the allocator assumed.
            fs.tsegfile.seguse(vol, seg_in_vol).live_bytes = 0
            vol_id = fs.tsegfile.volumes[vol].volume_id
            t0 = actor.time
            try:
                fs.footprint.write(actor, vol_id,
                                   seg_in_vol * fs.aspace.blocks_per_seg,
                                   image)
            except EndOfMedium:
                fs.tsegfile.mark_volume_full(vol)
                fs.footprint.mark_full(vol_id)
                continue
            except PermanentDeviceError:
                continue  # the retry policy has fenced the volume
            finally:
                account.charge(CAT_FOOTPRINT_WRITE, actor.time - t0)
            locations.append((vol, seg_in_vol))
            self.replicas_written += 1
            return True

    def replicate(self, actor: Actor, tsegno: int) -> None:
        """Mint copies of a segment whose primary just reached tertiary
        storage (its sealed cache line is the image's source).

        Running out of volumes simply stops replication (replicas are an
        optimisation).
        """
        image = self.read_image(actor, tsegno)
        if image is None:
            return
        for _ in range(self.copies - len(self.catalog.get(tsegno, ()))):
            if not self.mint(actor, tsegno, image):
                break
