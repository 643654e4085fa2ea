"""A consistency checker for mounted filesystems (the fsck analogue).

LFS recovery is roll-forward rather than scan-and-repair, but a checker
is still invaluable for testing: after any stress sequence (churn,
cleaning, migration, crashes) the invariants verified here must hold.

Checks, for plain LFS:

* every imap entry's device address lands in a tracked segment and the
  inode block there really contains the inode (with matching inum);
* every reachable file's block pointers land in tracked segments, and no
  two live blocks share a device address;
* directory tree connectivity: every allocated inode is reachable from
  the root (the ifile and other pinned files excepted);
* per-segment live-byte counts never exceed the segment size, clean
  segments hold no live pointers, and exactly one segment is active;
* every segment describes itself: each live file block appears with its
  ``(inode, lbn)`` in the summary catalogue of the segment holding it,
  and each imap inode block among that catalogue's inode addresses —
  the catalogue the cleaner and migrator trust (paper §5, Table 1).
  The walk reads the medium itself (disk log, cache line, or a
  tertiary segment's primary copy) and charges no virtual time.

For HighLight, additionally:

* cache directory and ifile SEG_CACHED flags/tags agree both ways;
* tertiary pointers land on allocated tertiary segments;
* tsegfile allocation cursors are within bounds.

Callers that know what the filesystem *should* contain can pass an
``oracle`` mapping of path -> expected bytes; every entry is read back
and compared, which is how the crash harness proves zero acknowledged
bytes were lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.blockdev.datapath import block_views
from repro.errors import AddressError
from repro.lfs.cleaner import partials
from repro.lfs.constants import BLOCK_SIZE, ROOT_INUM, UNASSIGNED
from repro.lfs.inode import find_inode_in_block
from repro.sim.actor import Actor


@dataclass
class CheckReport:
    """Findings of one consistency check."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    files_checked: int = 0
    blocks_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)


def _segment_valid(fs, daddr: int) -> bool:
    try:
        segno = fs.segno_of(daddr)
    except AddressError:
        return False
    if fs.is_disk_segno(segno):
        return True
    aspace = getattr(fs, "aspace", None)
    return aspace is not None and aspace.is_tertiary_segno(segno)


def check_filesystem(fs, actor: Actor | None = None,
                     oracle: Optional[Dict[str, bytes]] = None
                     ) -> CheckReport:
    """Verify the invariants described in the module docstring."""
    actor = actor or fs.actor
    report = CheckReport()
    seen_daddrs: Dict[int, Tuple[int, int]] = {}

    # Pass 1: namespace walk — reachability + per-file block checks.
    reachable: Set[int] = set()
    stack = [("/", ROOT_INUM)]
    while stack:
        path, inum = stack.pop()
        if inum in reachable:
            report.error(f"directory loop or double link at {path}")
            continue
        reachable.add(inum)
        try:
            ino = fs.get_inode(inum, actor)
        except Exception as exc:
            report.error(f"{path}: unreadable inode {inum}: {exc}")
            continue
        report.files_checked += 1
        _check_file_blocks(fs, actor, path, ino, seen_daddrs, report)
        if ino.is_dir():
            try:
                names = fs.readdir(path, actor)
            except Exception as exc:
                report.error(f"{path}: unreadable directory: {exc}")
                continue
            for name in names:
                child = (path.rstrip("/") + "/" + name)
                try:
                    stack.append((child, fs.lookup(child, actor)))
                except Exception as exc:
                    report.error(f"{child}: broken entry: {exc}")

    # Pass 2: imap — addresses point at blocks containing the inode.
    for inum, entry in sorted(fs.ifile.imap.items()):
        if entry.daddr == UNASSIGNED:
            continue  # freed
        if not _segment_valid(fs, entry.daddr):
            report.error(f"inode {inum}: imap daddr {entry.daddr} "
                         "outside any tracked segment")
            continue
        segno = fs.segno_of(entry.daddr)
        if fs.is_disk_segno(segno) and fs.ifile.seguse(segno).is_clean():
            # A clean segment is reclaimable at any moment; an inode
            # block living there would vanish on the next reuse.  (The
            # live-block sweep in pass 3 only covers *file* blocks, so
            # this was invisible until the crash matrix exercised it.)
            report.error(f"inode {inum}: imap daddr {entry.daddr} lands "
                         f"in clean segment {segno}")
        try:
            raw = fs.dev_read(actor, entry.daddr, 1)
            find_inode_in_block(raw, inum)
        except Exception as exc:
            report.error(f"inode {inum}: not found at imap daddr "
                         f"{entry.daddr}: {exc}")
        if inum not in reachable and inum not in fs.pinned_inums:
            report.warn(f"inode {inum} allocated but unreachable "
                        "(orphan)")

    # Pass 3: segment usage invariants.
    active = 0
    for segno, seg in enumerate(fs.ifile.segs):
        if seg.live_bytes > fs.config.segment_size:
            report.error(f"segment {segno}: live bytes "
                         f"{seg.live_bytes} exceed segment size")
        if seg.is_active():
            active += 1
        if seg.is_clean() and seg.is_dirty():
            report.error(f"segment {segno}: both clean and dirty")
    if active != 1:
        report.error(f"{active} active segments (expected exactly 1)")
    clean_with_live = [
        segno for segno, count in _live_per_segment(fs, seen_daddrs).items()
        if fs.is_disk_segno(segno) and fs.ifile.seguse(segno).is_clean()]
    for segno in clean_with_live:
        report.error(f"segment {segno}: clean but holds live blocks")
    _check_summaries(fs, seen_daddrs, report)

    if getattr(fs, "cache", None) is not None:
        _check_highlight(fs, report)
    if oracle:
        check_oracle(fs, actor, oracle, report)
    return report


def check_oracle(fs, actor: Actor, oracle: Dict[str, bytes],
                 report: CheckReport) -> None:
    """Compare every oracle entry against what the tree actually holds."""
    for path in sorted(oracle):
        expected = oracle[path]
        try:
            got = fs.read_path(path, actor=actor)
        except Exception as exc:
            report.error(f"{path}: oracle read-back failed: {exc}")
            continue
        if got != expected:
            first = next((i for i, (a, b) in enumerate(zip(got, expected))
                          if a != b), min(len(got), len(expected)))
            report.error(f"{path}: content differs from oracle "
                         f"({len(got)} vs {len(expected)} bytes, first "
                         f"divergence at offset {first})")


def _check_file_blocks(fs, actor, path, ino, seen_daddrs, report) -> None:
    nblocks = (ino.size + BLOCK_SIZE - 1) // BLOCK_SIZE
    for lbn in range(nblocks):
        try:
            daddr = fs.bmap(ino, lbn, actor)
        except Exception as exc:
            report.error(f"{path}: bmap({lbn}) failed: {exc}")
            continue
        if daddr == UNASSIGNED:
            continue  # hole
        report.blocks_checked += 1
        if not _segment_valid(fs, daddr):
            report.error(f"{path}: block {lbn} at {daddr} outside any "
                         "tracked segment")
            continue
        owner = seen_daddrs.get(daddr)
        if owner is not None and owner != (ino.inum, lbn):
            report.error(f"{path}: block {lbn} at {daddr} already owned "
                         f"by inode {owner[0]} lbn {owner[1]}")
        seen_daddrs[daddr] = (ino.inum, lbn)


def _live_per_segment(fs, seen_daddrs) -> Dict[int, int]:
    per_seg: Dict[int, int] = {}
    for daddr in seen_daddrs:
        try:
            segno = fs.segno_of(daddr)
        except AddressError:
            continue
        per_seg[segno] = per_seg.get(segno, 0) + 1
    return per_seg


def _check_summaries(fs, seen_daddrs, report: CheckReport) -> None:
    """Every live block appears in its own segment's summary catalogue."""
    live: Dict[int, Dict[int, Optional[Tuple[int, int]]]] = {}
    for daddr, owner in seen_daddrs.items():
        live.setdefault(fs.segno_of(daddr), {})[daddr] = owner
    for entry in fs.ifile.imap.values():
        if entry.daddr != UNASSIGNED and _segment_valid(fs, entry.daddr):
            live.setdefault(fs.segno_of(entry.daddr), {})[entry.daddr] = None
    for segno in sorted(live):
        described: Dict[int, Tuple[int, int]] = {}
        inode_daddrs: Set[int] = set()
        for base, summary in _catalogue(fs, segno):
            for fi, lbn, daddr in summary.entries(base):
                described[daddr] = (fi.ino, lbn)
            inode_daddrs.update(summary.inode_daddrs)
        for daddr, owner in sorted(live[segno].items()):
            if owner is None and daddr not in inode_daddrs:
                report.error(f"segment {segno}: inode block {daddr} is "
                             "missing from its summary")
            elif owner is not None and described.get(daddr) != owner:
                report.error(f"segment {segno}: block {daddr} (inode "
                             f"{owner[0]} lbn {owner[1]}) is not described "
                             "by its summary")


def _catalogue(fs, segno: int):
    """``(base, summary)`` per partial segment of ``segno`` as the medium
    holds it: the disk log, the segment's cache line, or its primary
    tertiary copy.  A staging segment still being filled is described
    by its open builder's in-memory summary."""
    base, bps = fs.seg_base(segno), fs.config.blocks_per_seg
    if fs.is_disk_segno(segno):
        image = _raw_image(fs.device, base, bps)
    else:
        builder = getattr(fs.migrator, "builder", None)
        if builder is not None and builder.tsegno == segno:
            return [(base, builder.summary)]
        line = fs.cache.lookup(segno)
        if line is not None:
            image = _raw_image(fs.device, fs.seg_base(line), bps)
        else:
            vol, seg_in_vol = fs.aspace.volume_of(segno)
            volume = fs.footprint.jukebox.volumes[
                fs.tsegfile.volumes[vol].volume_id]
            image = _raw_image(volume, seg_in_vol * bps, bps)
    return [(base + offset, summary)
            for offset, summary in partials(fs, segno, image)]


def _raw_image(device, blkno: int, nblocks: int):
    """Blocks straight from the medium's store, bypassing the timed
    device model: fsck inspects the platters, it does no I/O."""
    if hasattr(device, "components"):  # a concatenated disk farm
        idx, blkno = device.locate(blkno)
        device = device.components[idx]
    return block_views(device.store.read_refs(blkno, nblocks), BLOCK_SIZE)


def _check_highlight(fs, report: CheckReport) -> None:
    # Cache directory <-> ifile flags, both directions.
    for tsegno in fs.cache.lines():
        disk_segno = fs.cache.lookup(tsegno)
        seg = fs.ifile.seguse(disk_segno)
        if not seg.is_cached():
            report.error(f"cache line {disk_segno} (tertiary {tsegno}) "
                         "not flagged SEG_CACHED")
        if seg.cache_tag != tsegno:
            report.error(f"cache line {disk_segno}: tag {seg.cache_tag} "
                         f"!= directory entry {tsegno}")
    for disk_segno, seg in enumerate(fs.ifile.segs):
        if seg.is_cached():
            if fs.cache.lookup(seg.cache_tag) != disk_segno:
                report.error(f"segment {disk_segno} flagged cached but "
                             "absent from the cache directory")
    # Tertiary allocation cursors.
    for vol, meta in enumerate(fs.tsegfile.volumes):
        if not 0 <= meta.next_free <= meta.nsegs:
            report.error(f"volume {vol}: next_free {meta.next_free} "
                         f"out of range [0, {meta.nsegs}]")
        for seg_in_vol in range(meta.next_free, meta.nsegs):
            use = fs.tsegfile.seguse(vol, seg_in_vol)
            if use.live_bytes:
                report.error(f"volume {vol} seg {seg_in_vol}: live bytes "
                             "beyond the allocation cursor")
