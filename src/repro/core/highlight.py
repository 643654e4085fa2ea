"""HighLightFS: the assembled hierarchy-managing filesystem.

Applications see "a 'normal' filesystem, accessible through the usual
operating system calls" (paper §4): every LFS operation works unchanged,
but block I/O is routed through the block-map driver, which dispatches to
the disk farm, the segment cache, or — via the service process — a
tertiary volume.  Layering follows the paper's Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro import obs
from repro.blockdev.base import BlockDevice, CPUModel
from repro.blockdev.striped import ConcatDevice
from repro.core.addressing import AddressSpace, BlockMapDriver
from repro.core.ioserver import IOServer
from repro.core.segcache import SegmentCache
from repro.core.service import ServiceProcess
from repro.core.tsegfile import TSegFile, VolumeMeta
from repro.errors import InvalidArgument, NoSpace
from repro.faults.health import HealthRegistry
from repro.footprint.interface import FootprintInterface
from repro.lfs.constants import BLOCK_SIZE, SUMMARY_SIZE_HIGHLIGHT
from repro.lfs.filesystem import LFS, LFSConfig
from repro.lfs.ifile import SegUse
from repro.sched import (CLASS_CLEANER, CLASS_PREFETCH, CLASS_WRITEOUT,
                         TertiaryScheduler)
from repro.sim.actor import Actor


#: Share of the disk's segments usable as cache lines when mkfs is not
#: given ``ncachesegs`` (the paper's static split, §6.4).
CACHE_FRACTION = 0.25


@dataclass
class HighLightConfig(LFSConfig):
    """HighLight tunables on top of the base LFS knobs."""

    #: HighLight must use 4 KB summary blocks (its pointers address 4 KB
    #: blocks, paper §6.3).
    summary_size: int = SUMMARY_SIZE_HIGHLIGHT
    #: Static cap on disk segments usable as cache lines (chosen at
    #: mkfs, paper §6.4); None means CACHE_FRACTION of the disk.
    ncachesegs: Optional[int] = None
    #: Size tertiary volumes by their expected ("nominal") or actual
    #: ("effective") capacity; nominal exercises the end-of-medium path.
    expected_capacity: str = "effective"
    #: Place cache/staging lines in the highest-numbered clean segments —
    #: with a concatenated second spindle this steers staging onto a
    #: separate disk arm (Table 6's RZ58/HP7958A configurations).
    cache_prefer_high: bool = False
    #: Tertiary request scheduler mode: "passthrough" executes every
    #: submission inline in FIFO order (the paper's single-FIFO service
    #: process, byte-identical to the pre-scheduler pipeline);
    #: "scheduled" queues background classes for volume-batched dispatch
    #: (see docs/SCHEDULING.md).
    sched_mode: str = "passthrough"
    #: Queue age (virtual seconds) past which a starved background
    #: request is promoted ahead of batching and priority.
    sched_aging_threshold: float = 300.0
    #: Consecutive same-volume dispatches before the scheduler's
    #: elevator must consider other volumes.
    sched_batch_residency: int = 8
    #: Per-class queue-depth limits (admission control): prefetches and
    #: cleaner reads beyond the limit are rejected; write-outs beyond it
    #: force-drain the oldest pending write-out.
    sched_prefetch_queue_limit: int = 16
    sched_writeout_queue_limit: int = 8
    sched_cleaner_queue_limit: int = 32
    #: Seed for the backoff-jitter RNG of the retry policy
    #: :class:`repro.faults.FaultManager` attaches (docs/FAULTS.md).
    fault_retry_seed: int = 0


class HighLightFS(LFS):
    """LFS extended with tertiary storage management."""

    def __init__(self, device: BlockDevice,
                 config: Optional[HighLightConfig] = None,
                 cpu: Optional[CPUModel] = None,
                 actor: Optional[Actor] = None) -> None:
        super().__init__(device, config or HighLightConfig(), cpu, actor)
        #: Raw (concatenated) disk device, bypassing the block map —
        #: what the I/O server and migrator use for their direct access.
        self.disk = device
        self.footprint: Optional[FootprintInterface] = None
        #: The stack's one volume-health registry (set on attach); the
        #: retry policy, injector, repair daemon, scrubber and
        #: persistence all charge and read this one.
        self.health: Optional[HealthRegistry] = None
        self.aspace: Optional[AddressSpace] = None
        self.tsegfile: Optional[TSegFile] = None
        self.cache: Optional[SegmentCache] = None
        self.driver: Optional[BlockMapDriver] = None
        self.ioserver: Optional[IOServer] = None
        self.sched = None             # TertiaryScheduler, set on attach
        self.service: Optional[ServiceProcess] = None
        # Optional components: each constructor fills its own slot and
        # the owning layer reads the slot where it acts (DESIGN.md
        # "Assembling a stack").  ``None`` keeps the stack byte-identical
        # to the pipeline without that component.
        self.migrator = None          # set by Migrator.__init__
        self.replicas = None          # set by ReplicaManager.__init__
        self.rearranger = None        # set by SegmentRearranger.__init__
        self.faults = None            # set by FaultManager.__init__
        #: Set by PersistManager.__init__: every checkpoint also writes a
        #: persistence image, and :meth:`recover` replays one.
        self.persist = None
        self.range_tracker = None     # optional AccessRangeTracker
        self.tsegfile_inum: Optional[int] = None
        routed = obs.counter("highlight_dev_blocks_total",
                             "blocks routed through the block-map driver",
                             ("op",))
        self._routed_read = routed.labels(op="read")
        self._routed_write = routed.labels(op="write")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def mkfs_highlight(cls, disks: Union[BlockDevice, Sequence[BlockDevice]],
                       footprint: FootprintInterface,
                       config: Optional[HighLightConfig] = None,
                       cpu: Optional[CPUModel] = None,
                       actor: Optional[Actor] = None) -> "HighLightFS":
        """Create a HighLight filesystem over a disk farm and a jukebox."""
        config = config or HighLightConfig()
        device = cls._as_device(disks)
        ncache = config.ncachesegs
        if ncache is None:
            bps = config.blocks_per_seg
            disk_segs = device.capacity_blocks // bps
            ncache = max(1, int(disk_segs * CACHE_FRACTION))
        fs = LFS.mkfs.__func__(cls, device, config, cpu, actor,
                               ncachesegs=ncache)
        fs.attach_tertiary(footprint)
        # Persist the tertiary bookkeeping (tsegfile inum lives in the
        # superblock flags so mount can find it).
        fs.checkpoint()
        return fs

    @classmethod
    def mount_highlight(cls, disks: Union[BlockDevice, Sequence[BlockDevice]],
                        footprint: FootprintInterface,
                        config: Optional[HighLightConfig] = None,
                        cpu: Optional[CPUModel] = None,
                        actor: Optional[Actor] = None) -> "HighLightFS":
        """Mount an existing HighLight filesystem (crash recovery path)."""
        device = cls._as_device(disks)
        fs = LFS.mount.__func__(cls, device, config or HighLightConfig(),
                                cpu, actor)
        fs.attach_tertiary(footprint, existing=True)
        return fs

    @staticmethod
    def _as_device(disks) -> BlockDevice:
        if isinstance(disks, BlockDevice):
            return disks
        return ConcatDevice("diskfarm", list(disks))

    def attach_tertiary(self, footprint: FootprintInterface,
                        existing: bool = False) -> None:
        """Wire up the tertiary side (Fig. 5's lower layers)."""
        config: HighLightConfig = self.config
        self.footprint = footprint
        # A mount starts without the retry layer of whichever stack last
        # ran over this Footprint; a FaultManager over this one refills it.
        footprint.retry = None
        self.health = HealthRegistry(footprint.jukebox)
        if existing:
            self.tsegfile_inum = self.sb.flags or None
            if self.tsegfile_inum is None:
                raise InvalidArgument(
                    "filesystem has no tsegfile (not a HighLight fs?)")
            content = self.read(self.tsegfile_inum, 0,
                                self.get_inode(self.tsegfile_inum).size,
                                update_atime=False)
            self.tsegfile = TSegFile.deserialize(content)
        else:
            use_nominal = config.expected_capacity == "nominal"
            metas = []
            for info in footprint.volumes():
                blocks = (info.capacity_blocks if use_nominal
                          else info.effective_capacity_blocks)
                metas.append(VolumeMeta(volume_id=info.volume_id,
                                        nsegs=blocks // config.blocks_per_seg))
            self.tsegfile = TSegFile(metas)
            self.tsegfile_inum = self.create("/.tsegfile", actor=self.actor)
            self.sb.flags = self.tsegfile_inum
        self.aspace = AddressSpace(self.ifile.nsegs,
                                   self.tsegfile.seg_counts(),
                                   blocks_per_seg=config.blocks_per_seg)
        self.cache = SegmentCache(self, max_lines=self.sb.ncachesegs)
        if existing:
            self.cache.rebuild_from_ifile()
        self.driver = BlockMapDriver(self.aspace, self.disk, cpu=self.cpu)
        self.driver.cache = self.cache
        self.ioserver = IOServer(self)
        self.sched = TertiaryScheduler(
            self, self.ioserver, mode=config.sched_mode,
            aging_threshold=config.sched_aging_threshold,
            max_batch_residency=config.sched_batch_residency,
            queue_limits={
                CLASS_PREFETCH: config.sched_prefetch_queue_limit,
                CLASS_WRITEOUT: config.sched_writeout_queue_limit,
                CLASS_CLEANER: config.sched_cleaner_queue_limit,
            })
        self.service = ServiceProcess(self, self.ioserver, self.cache,
                                      sched=self.sched)
        self.driver.service = self.service

    @property
    def pinned_inums(self) -> frozenset:
        """The base LFS's special files plus the tsegfile (§6.4)."""
        if self.tsegfile_inum is None:
            return super().pinned_inums
        return super().pinned_inums | {self.tsegfile_inum}

    def set_prefetcher(self, prefetcher) -> None:
        """Install a prefetch policy on the service process."""
        if self.service is None:
            raise InvalidArgument("tertiary side not attached")
        self.service.prefetcher = prefetcher

    # ------------------------------------------------------------------
    # Geometry overrides: the unified address space
    # ------------------------------------------------------------------

    def seg_base(self, segno: int) -> int:
        if self.aspace is None:
            return super().seg_base(segno)
        return self.aspace.seg_base(segno)

    def segno_of(self, daddr: int) -> int:
        if self.aspace is None:
            return super().segno_of(daddr)
        return self.aspace.segno_of(daddr)

    def _usage(self, segno: int) -> Optional[SegUse]:
        if self.aspace is None:
            return super()._usage(segno)
        if self.aspace.is_tertiary_segno(segno):
            return self.tseg_use(segno)
        if self.aspace.is_disk_segno(segno):
            return self.ifile.seguse(segno)
        return None

    def seguse_for(self, segno: int) -> SegUse:
        if self.aspace is not None and self.aspace.is_tertiary_segno(segno):
            return self.tseg_use(segno)
        return self.ifile.seguse(segno)

    def tseg_use(self, tsegno: int) -> SegUse:
        """Usage entry for a tertiary segment (tsegfile lookup)."""
        vol, seg_in_vol = self.aspace.volume_of(tsegno)
        return self.tsegfile.seguse(vol, seg_in_vol)

    # ------------------------------------------------------------------
    # I/O routing
    # ------------------------------------------------------------------

    def dev_read_refs(self, actor: Actor, daddr: int, nblocks: int):
        if self.driver is None:
            return super().dev_read_refs(actor, daddr, nblocks)
        self.stats.blocks_read += nblocks
        self._routed_read.inc(nblocks)
        return self.driver.read_refs(actor, daddr, nblocks)

    def dev_writev(self, actor: Actor, daddr: int, parts) -> None:
        if self.driver is None:
            super().dev_writev(actor, daddr, parts)
            return
        nblocks = sum(map(len, parts)) // BLOCK_SIZE
        self.stats.blocks_written += nblocks
        self._routed_write.inc(nblocks)
        self.driver.writev(actor, daddr, parts)

    # ------------------------------------------------------------------
    # Log management overrides
    # ------------------------------------------------------------------

    def pick_clean_segment(self) -> int:
        """As LFS, but a clean-segment famine can reclaim a cache line —
        read-only lines never hold the sole copy of anything (§4)."""
        try:
            return super().pick_clean_segment()
        except NoSpace:
            if self.cache is None:
                raise
            freed = self.cache.surrender_line()
            if freed is None:
                raise
            obs.counter("highlight_cache_lines_surrendered_total",
                        "cache lines reclaimed during clean-segment famine"
                        ).inc()
            return freed

    def checkpoint(self, actor: Optional[Actor] = None) -> None:
        actor = actor or self.actor
        if self.migrator is not None:
            # Seal a half-built staging segment: its summary block is
            # written only at sealing, and a crash must not leave
            # checkpointed pointers into a line that describes nothing.
            self.migrator.flush(actor)
        if self.tsegfile is not None and self.tsegfile_inum is not None:
            content = self.tsegfile.serialize()
            ino = self.get_inode(self.tsegfile_inum, actor)
            old_size = ino.size
            self.write(self.tsegfile_inum, 0, content, actor)
            if len(content) < old_size:
                self._truncate_blocks(ino, len(content), actor)
        super().checkpoint(actor)
        if self.persist is not None:
            # The LFS checkpoint (superblock write) is durable first, so
            # the persistence image always describes an epoch the log can
            # reach; a crash between the two writes leaves the previous
            # image, which recovery treats as advisory.
            self.persist.on_checkpoint(actor)

    def recover(self, actor: Optional[Actor] = None):
        """Replay the persistence checkpoint after a remount.

        ``mount_highlight`` already recovered the LFS half (superblock
        checkpoint + roll-forward to the last durable epoch); this
        restores what the log does not record — health registry, scrub
        ledger, replica catalog, preserved counters — and reconciles
        staging lines and in-doubt volumes.  Requires a
        :class:`repro.persist.PersistManager` constructed over this
        filesystem; returns its
        :class:`~repro.persist.manager.RecoveryReport`.
        """
        if self.persist is None:
            raise InvalidArgument(
                "no PersistManager; construct one over this filesystem "
                "before recover()")
        return self.persist.recover(actor or self.actor)

    # ------------------------------------------------------------------
    # Access-range tracking hook (block-range policy support)
    # ------------------------------------------------------------------

    def read(self, inum: int, offset: int, nbytes: int,
             actor: Optional[Actor] = None,
             update_atime: bool = True) -> bytes:
        data = super().read(inum, offset, nbytes, actor, update_atime)
        if self.range_tracker is not None and update_atime and data:
            start = offset // BLOCK_SIZE
            end = (offset + len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
            when = (actor or self.actor).time
            self.range_tracker.record(inum, start, end, when)
        return data

    def write(self, inum: int, offset: int, data: bytes,
              actor: Optional[Actor] = None) -> int:
        written = super().write(inum, offset, data, actor)
        if self.range_tracker is not None and data and inum > 2:
            start = offset // BLOCK_SIZE
            end = (offset + len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
            when = (actor or self.actor).time
            self.range_tracker.record(inum, start, end, when)
        return written

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def df(self) -> Dict[str, int]:
        out = super().df()
        if self.tsegfile is not None:
            out["cache_lines"] = len(self.cache)
            out["cache_limit"] = self.sb.ncachesegs
            out["tertiary_volumes"] = len(self.tsegfile.volumes)
            out["tertiary_live_bytes"] = sum(
                self.tsegfile.live_bytes(v)
                for v in range(len(self.tsegfile.volumes)))
        return out
