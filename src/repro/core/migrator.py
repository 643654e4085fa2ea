"""The migrator: a second cleaner that moves data down the hierarchy.

"The migrator process periodically examines the collection of on-disk file
blocks, and decides (based upon some policy) which file data blocks and/or
metadata blocks should be migrated to a tertiary volume" (paper §6.2).
It locates blocks with ``lfs_bmapv``, reads them directly from the disk
device, and gathers them into staging segments already addressed with
tertiary block numbers (the ``lfs_migratev`` analogue); filled staging
segments are handed to the service process for copy-out.

Whole files migrate with their indirect blocks and (optionally) their
inodes — migrating metadata is one of HighLight's distinguishing features
(§8.2) — and the policies keep a unit's metadata on the same volume as its
data by staging them into the same segment stream.

:class:`MigrationPipeline` runs the migrator and the I/O server as two
scheduled actors sharing a queue, reproducing the overlapped (and
arm-contended) execution measured in Tables 4 and 6.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Tuple

from repro import obs
from repro.blockdev.datapath import block_views
from repro.core.addressing import line_read
from repro.errors import InvalidArgument, MigrationError
from repro.lfs.constants import (BLOCK_SIZE, DOUBLE_ROOT_LBN, PTRS_PER_BLOCK,
                                 SINGLE_ROOT_LBN, UNASSIGNED, double_child_lbn)
from repro.lfs.inode import Inode, unpack_inode_block
from repro.lfs.summary import SegmentSummary
from repro.core.staging import SPILL_CHUNK_BLOCKS, StagingBuilder
from repro.sim.actor import Actor
from repro.sim.scheduler import Scheduler, TimedQueue, WAIT


class MigrationStats:
    """What one migration run accomplished.

    A thin facade over the process-wide metrics registry: the per-run
    attributes answer "what did *this* migrator do", while every
    increment also lands in ``migrator_*_total`` counters so snapshots
    and dashboards see the aggregate without holding the object.
    """

    def __init__(self) -> None:
        self.files_migrated = 0
        self.blocks_migrated = 0
        self.segments_staged = 0
        self.bytes_staged = 0

    def add_file(self) -> None:
        self.files_migrated += 1
        obs.counter("migrator_files_migrated_total",
                    "files fully processed by the migrator").inc()

    def add_blocks(self, n: int = 1) -> None:
        self.blocks_migrated += n
        obs.counter("migrator_blocks_migrated_total",
                    "blocks staged for tertiary storage").inc(n)

    def add_inode(self) -> None:
        obs.counter("migrator_inodes_migrated_total",
                    "inodes staged for tertiary storage").inc()

    def add_segment(self, nbytes: int) -> None:
        self.segments_staged += 1
        self.bytes_staged += nbytes
        obs.counter("migrator_segments_staged_total",
                    "staging segments sealed").inc()
        obs.counter("migrator_bytes_staged_total",
                    "bytes sealed into staging segments").inc(nbytes)


class Migrator:
    """Implements migration mechanism; policy decides what to feed it."""

    def __init__(self, fs, policy=None, actor: Optional[Actor] = None,
                 migrate_inodes: bool = False) -> None:
        self.fs = fs
        self.policy = policy
        # The default migrator shares the filesystem clock (sync mode);
        # pipelined runs pass their own actor with an independent clock.
        self.actor = actor or Actor("migrator", clock=fs.actor.clock)
        #: Also stage the inode itself (HighLight can migrate *all*
        #: metadata, §4; off by default so first-byte access needs only
        #: the data's segment, matching the paper's measured prototype).
        self.migrate_inodes = migrate_inodes
        self.stats = MigrationStats()
        self.builder: Optional[StagingBuilder] = None
        #: tsegno -> unit tag; migration-time hints the prefetcher reads.
        self.hint_table: Dict[int, object] = {}
        self._unit_tag: object = None
        #: While a :class:`MigrationPipeline` runs, the queue its I/O
        #: server drains; otherwise sealed segments go to the scheduler.
        self.outbox: Optional[TimedQueue] = None
        # The service process restages end-of-medium lines through here.
        fs.migrator = self

    # -- staging-segment lifecycle ---------------------------------------------------

    def _open_builder(self, actor: Actor) -> StagingBuilder:
        vol, seg_in_vol = self.fs.tsegfile.alloc_segment()
        tsegno = self.fs.aspace.tertiary_segno(vol, seg_in_vol)
        disk_segno = self.fs.cache.acquire_line(actor)
        self.fs.cache.register(tsegno, disk_segno, actor, staging=True)
        builder = StagingBuilder(self.fs, tsegno, disk_segno)
        if self._unit_tag is not None:
            self.hint_table[tsegno] = self._unit_tag
        return builder

    def _finalize_builder(self, actor: Actor,
                          writeout: bool = True) -> Optional[int]:
        """Seal the open staging segment and schedule its copy-out.

        ``writeout=False`` is the restage path: the service process
        re-issues the write-out itself, and needs a valid segment to
        write even when nothing in the failed one was still live.
        """
        builder = self.builder
        if builder is None or (writeout and not builder.blocks):
            return None
        self.builder = None
        builder.finalize(actor)
        tseg = self.fs.tseg_use(builder.tsegno)
        tseg.lastmod = actor.time
        self.stats.add_segment(builder.used_bytes())
        if writeout and self.outbox is not None:
            self.outbox.put(actor, builder.tsegno)
        elif writeout:
            # Background-class scheduler submission: synchronous in the
            # default pass-through mode, volume-batched when scheduled.
            self.fs.sched.submit_writeout(actor, builder.tsegno)
        return builder.tsegno

    def flush(self, actor: Optional[Actor] = None) -> Optional[int]:
        """Seal any partially-filled staging segment (checkpoint path)."""
        return self._finalize_builder(actor or self.actor)

    def _stage_block(self, actor: Actor, inum: int, lbn: int, data: bytes,
                     lastlength: int = BLOCK_SIZE) -> int:
        if self.builder is None:
            self.builder = self._open_builder(actor)
        if not self.builder.blocks_that_fit(inum):
            self._finalize_builder(actor)
            self.builder = self._open_builder(actor)
        return self.builder.add_block(inum, lbn, data, lastlength)

    def _stage_span(self, actor: Actor, ino: Inode,
                    span: List[Tuple[int, int]], blocks: List) -> None:
        """Stage a physically contiguous span of live blocks of one file.

        ``blocks`` holds one buffer per block.  Blocks land in batched
        gather copies (``add_block_views``), splitting exactly where
        per-block staging would have sealed the segment: the batch size
        is how many blocks the open builder still has room for, which is
        precisely how many per-block adds would have succeeded.  Each
        batch is re-pointed a pointer-block run at a time.
        """
        fs = self.fs
        inum = ino.inum
        pos = 0
        total = len(span)
        while pos < total:
            if self.builder is None:
                self.builder = self._open_builder(actor)
            take = min(total - pos, self.builder.blocks_that_fit(inum))
            if not take:
                self._finalize_builder(actor)
                self.builder = self._open_builder(actor)
                continue
            batch = span[pos:pos + take]
            lbns = [lbn for lbn, _ in batch]
            first = self.builder.add_block_views(
                inum, lbns, blocks[pos:pos + take], ino.lastlength(lbns[-1]))
            news = range(first, first + take)
            for i, j in fs.pointer_runs(lbns):
                fs.set_bmap_run(ino, lbns[i], news[i:j], actor)
            fs.account_blocks_moved([old for _, old in batch], news)
            self.stats.add_blocks(take)
            pos += take

    def _stage_inode(self, actor: Actor, ino: Inode) -> int:
        if self.builder is None:
            self.builder = self._open_builder(actor)
        if not self.builder.room_for_inode_block():
            self._finalize_builder(actor)
            self.builder = self._open_builder(actor)
        return self.builder.add_inode_block([ino])

    # -- block enumeration -------------------------------------------------------------

    def _file_block_map(self, ino: Inode, actor: Actor,
                        lbn_range: Optional[Tuple[int, int]] = None
                        ) -> List[Tuple[int, int]]:
        """Disk-resident (lbn, daddr) pairs for a file's data blocks."""
        fs = self.fs
        nblocks = (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        lo, hi = (0, nblocks) if lbn_range is None else lbn_range
        lbns = range(lo, min(hi, nblocks))
        out = []
        for i, j in fs.pointer_runs(lbns):
            for lbn, daddr in zip(lbns[i:j],
                                  fs.bmap_run(ino, lbns[i], j - i, actor)):
                if daddr != UNASSIGNED and fs.aspace.is_disk_daddr(daddr):
                    out.append((lbn, daddr))
        return out

    def _indirect_lbns(self, ino: Inode, actor: Actor) -> List[int]:
        """Existing indirect blocks, children before roots."""
        fs = self.fs
        out = []
        if ino.ib[1] != UNASSIGNED or fs.bcache.peek(
                (ino.inum, DOUBLE_ROOT_LBN)) is not None:
            root = fs._read_indirect(ino, DOUBLE_ROOT_LBN, ino.ib[1], actor)
            children = struct.unpack(f"<{PTRS_PER_BLOCK}I", root)
            for j, child in enumerate(children):
                if child != UNASSIGNED or fs.bcache.peek(
                        (ino.inum, double_child_lbn(j))) is not None:
                    out.append(double_child_lbn(j))
            out.append(DOUBLE_ROOT_LBN)
        if ino.ib[0] != UNASSIGNED or fs.bcache.peek(
                (ino.inum, SINGLE_ROOT_LBN)) is not None:
            out.append(SINGLE_ROOT_LBN)
        return out

    # -- migration proper --------------------------------------------------------------

    def migrate_file(self, target, actor: Optional[Actor] = None,
                     lbn_range: Optional[Tuple[int, int]] = None,
                     unit_tag: object = None) -> int:
        """Migrate a file (or a block range of it); returns blocks moved."""
        actor = actor or self.actor
        before = self.stats.blocks_migrated
        for _ in self.migrate_file_steps(target, actor, lbn_range, unit_tag):
            pass
        return self.stats.blocks_migrated - before

    def migrate_file_steps(self, target, actor: Actor,
                           lbn_range: Optional[Tuple[int, int]] = None,
                           unit_tag: object = None
                           ) -> Generator[None, None, None]:
        """Generator form of migrate_file: yields at each I/O step so a
        scheduler can interleave the migrator with the I/O server."""
        fs = self.fs
        inum = target if isinstance(target, int) else fs.lookup(target, actor)
        ino = fs.get_inode(inum, actor)
        self._unit_tag = unit_tag
        # Unstable (dirty) data must reach the log first so the staging
        # copy is the current one (the policies avoid unstable files, but
        # the mechanism must still be correct).
        if fs.bcache.dirty_for_inode(inum):
            fs.segwriter.flush(actor)
            yield

        whole_file = lbn_range is None
        block_map = self._file_block_map(ino, actor, lbn_range)
        # Read candidate blocks "directly from the disk device" in
        # physically contiguous runs, then verify + gather (lfs_bmapv /
        # lfs_migratev, paper §6.7).
        block_map.sort(key=lambda pair: pair[1])
        idx = 0
        while idx < len(block_map):
            run = [block_map[idx]]
            while (idx + len(run) < len(block_map)
                   and block_map[idx + len(run)][1] == run[0][1] + len(run)
                   and len(run) < SPILL_CHUNK_BLOCKS):
                run.append(block_map[idx + len(run)])
            idx += len(run)
            # Borrowed ranges: staging copies each live block exactly
            # once (at the builder append); the gather itself is free.
            refs = fs.dev_read_refs(actor, run[0][1], len(run))
            yield
            live = fs.lfs_bmapv([(inum, lbn, daddr) for lbn, daddr in run],
                                actor)
            # Stage each contiguous live span as one batch: one room
            # check and one summary update per span instead of per block
            # (the per-block buffers themselves are cheap borrowed views).
            blocks = block_views(refs, BLOCK_SIZE)
            k = 0
            while k < len(run):
                if not live[k]:
                    k += 1
                    continue
                j = k + 1
                while j < len(run) and live[j]:
                    j += 1
                self._stage_span(actor, ino, run[k:j], blocks[k:j])
                k = j
            if self.builder is not None and self.builder.spill(actor):
                yield

        if whole_file:
            # Indirect blocks now point at tertiary addresses; stage them
            # (children before roots) and finally the inode itself.
            for ind_lbn in self._indirect_lbns(ino, actor):
                old_daddr = fs.bmap(ino, ind_lbn, actor)
                content = fs._read_indirect(ino, ind_lbn, old_daddr, actor)
                new_daddr = self._stage_block(actor, inum, ind_lbn, content)
                fs.set_bmap(ino, ind_lbn, new_daddr, actor)
                fs.account_block_moved(old_daddr, new_daddr)
                fs.bcache.mark_clean((inum, ind_lbn))
                self.stats.add_blocks()
        if whole_file and self.migrate_inodes:
            fs._dirty_inodes.discard(inum)
            entry = fs.ifile.imap_entry(inum)
            new_daddr = self._stage_inode(actor, ino)
            fs.account_block_moved(entry.daddr, new_daddr, nbytes=128)
            entry.daddr = new_daddr
            self.stats.add_inode()
        elif whole_file:
            # The inode stays on disk but now points at tertiary
            # addresses; rewrite it through the normal log path.
            fs.mark_inode_dirty(inum)

        # Close the spill gap so later reads through the cache line see
        # every staged block.
        if self.builder is not None and self.builder.pending_spill_blocks():
            self.builder.spill(actor, all_pending=True)
            yield
        self.stats.add_file()
        self._unit_tag = None

    # -- policy-driven operation ----------------------------------------------------------

    def run_once(self, actor: Optional[Actor] = None) -> MigrationStats:
        """One policy evaluation + migration pass."""
        actor = actor or self.actor
        if self.policy is None:
            raise InvalidArgument("migrator has no policy attached")
        units = self.policy.select(self.fs, actor)
        for unit in units:
            obs.counter("migrator_policy_picks_total",
                        "units selected by the migration policy").inc()
            obs.event(obs.EV_MIGRATE_PICK, actor.time,
                      policy=type(self.policy).__name__, tag=str(unit.tag),
                      files=len(unit.inums))
            for inum in unit.inums:
                self.migrate_file(inum, actor,
                                  lbn_range=unit.lbn_ranges.get(inum),
                                  unit_tag=unit.tag)
        self.flush(actor)
        return self.stats

    # -- forwarding a tertiary segment's live contents ----------------------------------------

    def forward_segment(self, actor: Actor, tsegno: int,
                        summary: SegmentSummary, image: bytes) -> int:
        """Re-stage whatever is still live in tertiary segment ``tsegno``.

        ``image`` holds the segment from its summary block on (as far as
        the last block ``summary`` describes).  Live file blocks, then
        live inodes, go into the staging stream and every index
        structure is re-pointed; returns how many were forwarded.  The
        tertiary cleaner, the rearranger and end-of-medium restaging all
        forward through here; obtaining the image and releasing the old
        segment and its cache line stay with them.
        """
        fs = self.fs
        base = fs.aspace.seg_base(tsegno)

        def block(daddr: int) -> bytes:
            start = (daddr - base) * BLOCK_SIZE
            return image[start:start + BLOCK_SIZE]

        forwarded = 0
        # One lfs_bmapv item at a time, in place: its inode and indirect
        # block reads interleave with the staging spills, and an inode
        # that vanished since migration is simply "not live".
        for fi, lbn, daddr in summary.entries(base):
            if not fs.lfs_bmapv([(fi.ino, lbn, daddr)], actor)[0]:
                continue
            new_daddr = self._stage_block(
                actor, fi.ino, lbn, block(daddr),
                fi.lastlength if lbn == fi.blocks[-1] else BLOCK_SIZE)
            fs.set_bmap(fs.get_inode(fi.ino, actor), lbn, new_daddr, actor)
            fs.account_block_moved(daddr, new_daddr)
            forwarded += 1
        for ino_daddr in summary.inode_daddrs:
            for ino in unpack_inode_block(block(ino_daddr)):
                if not fs.lfs_bmapv([(ino.inum, None, ino_daddr)], actor)[0]:
                    continue
                new_daddr = self._stage_inode(
                    actor, fs.get_inode(ino.inum, actor))
                fs.account_block_moved(ino_daddr, new_daddr, nbytes=128)
                fs.ifile.imap_entry(ino.inum).daddr = new_daddr
                forwarded += 1
        return forwarded

    def restage_line(self, actor: Actor, old_tsegno: int) -> int:
        """Re-stage a segment whose volume hit end-of-medium (§6.3).

        The line's blocks are re-addressed on the next volume; all index
        structures are re-pointed, the old tertiary segment is released,
        and the new tertiary segment number is returned.
        """
        fs = self.fs
        disk_segno = fs.cache.lookup(old_tsegno)
        if disk_segno is None:
            raise MigrationError(f"segment {old_tsegno} not cached")
        if self.builder is not None and self.builder.tsegno == old_tsegno:
            self.builder = None
        line_base = fs.aspace.seg_base(disk_segno)
        image = line_read(fs.disk, actor, line_base, 1, fs.aspace)
        summary = SegmentSummary.try_unpack(image, fs.config.summary_size)
        if summary is None:
            raise MigrationError(
                f"staging line for segment {old_tsegno} has no summary")
        npayload = summary.ndata_blocks() + len(summary.inode_daddrs)
        if npayload:
            image += line_read(fs.disk, actor, line_base + 1, npayload,
                               fs.aspace)
        self.forward_segment(actor, old_tsegno, summary, image)
        # Release the failed tertiary segment and its line.
        vol, seg_in_vol = fs.aspace.volume_of(old_tsegno)
        fs.tsegfile.release_segment(vol, seg_in_vol)
        fs.cache.drop(old_tsegno)
        if self.builder is None:
            # Nothing in the failed segment was still live; stage an empty
            # segment so the caller's retry has something valid to write.
            self.builder = self._open_builder(actor)
        return self._finalize_builder(actor, writeout=False)


class MigrationPipeline:
    """Run the migrator and the I/O server as overlapped actors.

    This is the configuration the paper measures in §7.3: the migrator
    fills staging segments (reading file blocks and writing cache lines on
    the staging disk) while the I/O server concurrently drains completed
    segments to the MO drive.  Table 6's phase boundary (arm contention
    while the migrator runs; none after) is :attr:`migrator_finish_time`;
    the run ends at :attr:`finish_time`.
    """

    def __init__(self, fs, migrator: Migrator, targets: List,
                 migrator_actor: Optional[Actor] = None,
                 ioserver_actor: Optional[Actor] = None) -> None:
        self.fs = fs
        self.migrator = migrator
        self.targets = list(targets)
        self.migrator_actor = migrator_actor or migrator.actor
        self.ioserver_actor = ioserver_actor or Actor("io-server")
        self.queue = TimedQueue("writeout")
        self.migrator_done = False
        self.migrator_finish_time = 0.0
        self.finish_time = 0.0

    def run(self) -> None:
        self.migrator.outbox = self.queue
        try:
            scheduler = Scheduler()
            scheduler.add(self.migrator_actor, self._migrator_task())
            scheduler.add(self.ioserver_actor, self._ioserver_task())
            scheduler.run()
        finally:
            self.migrator.outbox = None

    def _migrator_task(self):
        actor = self.migrator_actor
        for target in self.targets:
            yield from self.migrator.migrate_file_steps(target, actor)
        self.migrator.flush(actor)
        self.migrator_done = True
        self.migrator_finish_time = actor.time
        yield

    def _ioserver_task(self):
        actor = self.ioserver_actor
        while True:
            tsegno = self.queue.get(actor)
            if tsegno is None:
                if self.migrator_done and not len(self.queue):
                    break
                yield WAIT
                continue
            yield from self.fs.service.writeout_line_steps(actor, tsegno)
            yield
        self.finish_time = actor.time
