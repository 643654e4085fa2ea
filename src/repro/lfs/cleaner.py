"""The user-level cleaner: garbage-collects dirty segments.

"The cleaner selects one or more dirty segments to be cleaned, appends all
valid data from those segments to the tail of the log, and then marks those
segments clean" (paper §3).  It communicates with the file system through
the ifile and the ``lfs_bmapv``/``lfs_markv`` calls, and being "user-level"
here means it is an ordinary object with its own actor whose policy can be
swapped without touching the filesystem.

Selection policies: greedy (least live bytes) and the Sprite-LFS
cost-benefit ratio.  HighLight's migrator reuses the same segment-walking
machinery (paper §6.7) but targets staging segments instead of the log
tail.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Tuple

from repro import obs
from repro.blockdev.datapath import block_views
from repro.lfs.constants import BLOCK_SIZE, UNASSIGNED
from repro.lfs.ifile import SEG_CACHED, SEG_CLEAN, SEG_GONE
from repro.lfs.inode import unpack_inode_block
from repro.lfs.summary import SegmentSummary
from repro.sim.actor import Actor


class CleaningPolicy(ABC):
    """Chooses which dirty segments to clean next."""

    @abstractmethod
    def rank(self, fs, segno: int) -> float:
        """Higher rank = cleaned sooner."""

    def select(self, fs, limit: int) -> List[int]:
        candidates = [segno for segno in fs.ifile.dirty_segments()
                      if not fs.ifile.seguse(segno).flags & (SEG_CACHED | SEG_GONE)]
        candidates.sort(key=lambda s: self.rank(fs, s), reverse=True)
        return candidates[:limit]


class GreedyPolicy(CleaningPolicy):
    """Clean the emptiest segments first."""

    def rank(self, fs, segno: int) -> float:
        seg = fs.ifile.seguse(segno)
        return float(fs.config.segment_size - seg.live_bytes)


class CostBenefitPolicy(CleaningPolicy):
    """Sprite LFS cost-benefit: (1 - u) * age / (1 + u)."""

    def __init__(self, now_fn=None) -> None:
        self._now_fn = now_fn

    def rank(self, fs, segno: int) -> float:
        seg = fs.ifile.seguse(segno)
        u = min(1.0, seg.live_bytes / fs.config.segment_size)
        now = self._now_fn() if self._now_fn else fs.actor.time
        age = max(0.0, now - seg.lastmod)
        return (1.0 - u) * age / (1.0 + u)


def partials(fs, segno: int, image) -> Iterator[Tuple[int, SegmentSummary]]:
    """``(offset, summary)`` per partial segment of segment ``segno``,
    whose blocks ``image`` holds (one buffer per block).

    Partials sit back to back and chain through ``next_daddr``; the walk
    stops at the first block that is not a valid summary, at a catalogue
    that overruns the segment, and where the chain leaves the segment.
    """
    bps = fs.config.blocks_per_seg
    offset = 0
    while offset < bps:
        raw = image[offset]
        summary = SegmentSummary.try_unpack(
            raw if isinstance(raw, bytes) else bytes(raw),
            fs.config.summary_size)
        if summary is None:
            return
        size = 1 + summary.ndata_blocks() + len(summary.inode_daddrs)
        if offset + size > bps:
            return  # corrupt catalogue; stop walking
        yield offset, summary
        offset += size
        nxt = summary.next_daddr
        if nxt == UNASSIGNED or fs.segno_of(nxt) != segno:
            return


def walk_segment(fs, actor: Actor, segno: int):
    """Parse a dirty segment's partial segments from one full-segment read.

    Yields ``(summary, entries, inode_daddrs, inode_blocks)`` per partial,
    where ``entries`` is a list of (inum, lbn, daddr, data).  The cleaner
    reads the whole segment in a single large transfer, like the real one.
    """
    base = fs.seg_base(segno)
    # Borrowed per-block buffers instead of a joined image: the extent
    # store hands back each whole-block extent untouched, so walking a
    # dead segment copies nothing (block data is only materialised for
    # the live blocks the caller actually forwards).
    refs = fs.dev_read_refs(actor, base, fs.config.blocks_per_seg)
    image = block_views(refs, BLOCK_SIZE)
    for offset, summary in partials(fs, segno, image):
        ndata = summary.ndata_blocks()
        entries = [(fi.ino, lbn, daddr, image[daddr - base])
                   for fi, lbn, daddr in summary.entries(base + offset)]
        inode_blocks = []
        for j in range(len(summary.inode_daddrs)):
            blk = image[offset + 1 + ndata + j]
            inode_blocks.append(blk if isinstance(blk, bytes)
                                else bytes(blk))
        yield summary, entries, summary.inode_daddrs, inode_blocks


class Cleaner:
    """Reclaims dirty segments by forwarding live data to the log tail."""

    def __init__(self, fs, policy: Optional[CleaningPolicy] = None,
                 actor: Optional[Actor] = None,
                 target_clean: int = 8,
                 max_per_pass: int = 4) -> None:
        self.fs = fs
        self.policy = policy or CostBenefitPolicy()
        self.actor = actor or Actor("cleaner", clock=fs.actor.clock)
        self.target_clean = target_clean
        self.max_per_pass = max_per_pass
        self.segments_cleaned = 0
        self.blocks_forwarded = 0

    def needs_cleaning(self) -> bool:
        return self.fs.ifile.clean_count() < self.target_clean

    def clean_pass(self) -> int:
        """One cleaning pass; returns segments reclaimed."""
        blocks_before = self.blocks_forwarded
        victims = self.policy.select(self.fs, self.max_per_pass)
        cleaned = 0
        for segno in victims:
            if self.clean_segment(segno):
                cleaned += 1
        obs.counter("cleaner_passes_total", "disk cleaner passes run").inc()
        obs.event(obs.EV_CLEAN_PASS, self.actor.time,
                  candidates=len(victims), cleaned=cleaned,
                  blocks_forwarded=self.blocks_forwarded - blocks_before,
                  actor=self.actor.name)
        return cleaned

    def run(self, max_passes: int = 64) -> int:
        """Clean until the headroom target is met (or nothing reclaimable)."""
        total = 0
        for _ in range(max_passes):
            if not self.needs_cleaning():
                break
            reclaimed = self.clean_pass()
            if reclaimed == 0:
                break
            total += reclaimed
        return total

    def clean_segment(self, segno: int) -> bool:
        """Clean one segment; returns False if it cannot be cleaned now."""
        fs = self.fs
        seg = fs.ifile.seguse(segno)
        if seg.is_active() or seg.is_cached() or not seg.is_dirty():
            return False
        live_blocks: List[Tuple[int, int, bytes]] = []
        live_inodes: List[int] = []
        for summary, entries, ino_daddrs, ino_blocks in walk_segment(
                fs, self.actor, segno):
            flags = fs.lfs_bmapv([(inum, lbn, daddr)
                                  for inum, lbn, daddr, _ in entries],
                                 self.actor)
            for (inum, lbn, _daddr, data), alive in zip(entries, flags):
                if alive:
                    # Materialise only what gets forwarded; dead blocks
                    # stay borrowed views and cost nothing.
                    live_blocks.append(
                        (inum, lbn,
                         data if isinstance(data, bytes) else bytes(data)))
            for daddr, blk in zip(ino_daddrs, ino_blocks):
                for ino in unpack_inode_block(blk):
                    entry = fs.ifile.imap_lookup(ino.inum)
                    if entry is not None and entry.daddr == daddr:
                        live_inodes.append(ino.inum)
        if live_blocks:
            # Indirect blocks are forwarded only if their content is
            # current; bmapv already guaranteed that.
            fs.lfs_markv(live_blocks, self.actor)
            self.blocks_forwarded += len(live_blocks)
            obs.counter("cleaner_blocks_forwarded_total",
                        "live blocks re-appended by the cleaner").inc(
                            len(live_blocks))
        for inum in live_inodes:
            fs.get_inode(inum, self.actor)
            fs.mark_inode_dirty(inum)
        fs.segwriter.flush(self.actor)
        seg.flags = SEG_CLEAN
        seg.live_bytes = 0
        seg.cache_tag = UNASSIGNED
        self.segments_cleaned += 1
        obs.counter("cleaner_segments_cleaned_total",
                    "dirty segments reclaimed by the cleaner").inc()
        return True
