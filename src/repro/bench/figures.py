"""Executable reproductions of the paper's figures.

Figures 1-5 are architecture/layout diagrams, not measurements; each
function here builds a live system, renders the same structure as ASCII,
and returns both the rendering and the structural facts the figure
depicts, so the figure benchmarks can assert the layout invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.errors import AddressError
from repro.lfs.constants import RESERVED_BLOCKS, UNASSIGNED
from repro.lfs.ifile import (SEG_ACTIVE, SEG_CACHED, SEG_CLEAN, SEG_DIRTY,
                             SEG_STAGING)
from repro.lfs.summary import SegmentSummary
from repro.util.units import MB


@dataclass
class FigureResult:
    """Rendered figure plus machine-checkable facts."""

    title: str
    rendering: str
    facts: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{'=' * 70}\n{self.title}\n{'=' * 70}\n{self.rendering}"


def _state_key(flags: int) -> str:
    out = []
    if flags & SEG_DIRTY:
        out.append("d")
    if flags & SEG_CLEAN:
        out.append("c")
    if flags & SEG_ACTIVE:
        out.append("a")
    if flags & SEG_CACHED:
        out.append("C")
    if flags & SEG_STAGING:
        out.append("S")
    return ",".join(out) or "-"


def _segment_rows(fs, limit: int = 12) -> List[str]:
    rows = []
    for segno, seg in enumerate(fs.ifile.segs[:limit]):
        tag = (f" cache_tag={seg.cache_tag}"
               if seg.cache_tag != UNASSIGNED else "")
        rows.append(f"  seg {segno:>3} [{_state_key(seg.flags):>5}] "
                    f"live={seg.live_bytes:>8}{tag}")
    return rows


def figure1() -> FigureResult:
    """Fig. 1: base LFS data layout — threaded log over segments."""
    bed = harness.make_lfs(partition_bytes=32 * MB)
    fs, app = bed.fs, bed.app
    fs.write_path("/a.dat", b"x" * (600 * 1024), actor=app)
    fs.write_path("/b.dat", b"y" * (900 * 1024), actor=app)
    fs.checkpoint(app)

    rows = ["LFS on-disk layout (segment summaries from the ifile):"]
    rows += _segment_rows(fs)
    rows.append(f"  log tail: segment {fs.cur_segno}, "
                f"block offset {fs.cur_offset}")
    # Walk the first segment's partial-segment chain like recovery does.
    base = fs.seg_base(0)
    raw = fs.dev_read(app, base, 1)
    summary = SegmentSummary.try_unpack(raw, fs.config.summary_size)
    rows.append(f"  seg 0 first summary: {summary.ndata_blocks()} data "
                f"blocks, {len(summary.inode_daddrs)} inode blocks, "
                f"ss_next -> {summary.next_daddr}")

    active = fs.ifile.seguse(fs.cur_segno)
    facts = {
        "active_is_dirty": active.is_dirty() and active.is_active(),
        "clean_exist": fs.ifile.clean_count() > 0,
        "summary_parses": summary is not None,
        "threaded": summary.next_daddr != UNASSIGNED,
    }
    return FigureResult("Figure 1 — LFS data layout", "\n".join(rows), facts)


def figure2() -> FigureResult:
    """Fig. 2: the storage hierarchy — disk farm, automigration, jukebox."""
    bed = harness.make_highlight(partition_bytes=64 * MB, n_platters=4)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app
    fs.write_path("/data.bin", b"z" * (2 * MB), actor=app)
    fs.checkpoint(app)
    app.sleep(600)
    bed.migrator.migrate_file("/data.bin", app)
    bed.migrator.flush(app)
    fs.checkpoint(app)
    # Demand path: eject, then read back through the cache.
    fs.service.flush_cache(app)
    fs.drop_caches(app, drop_inodes=True)
    data = fs.read_path("/data.bin", 0, 1024)

    rows = [
        "reads; initial writes --> [ disk farm ] <--caching-- [ jukebox ]",
        f"  disk segments: {fs.ifile.nsegs} "
        f"(clean {fs.ifile.clean_count()})",
        f"  cache lines in use: {len(fs.cache)} / {fs.sb.ncachesegs}",
        f"  tertiary volumes: {len(fs.tsegfile.volumes)}; live bytes "
        f"{sum(fs.tsegfile.live_bytes(v) for v in range(len(fs.tsegfile.volumes)))}",
        f"  demand fetches so far: {fs.stats.demand_fetches}",
    ]
    facts = {
        "round_trip": data == b"z" * 1024,
        "migrated": any(fs.tsegfile.live_bytes(v)
                        for v in range(len(fs.tsegfile.volumes))),
        "fetched": fs.stats.demand_fetches > 0,
    }
    return FigureResult("Figure 2 — the storage hierarchy",
                        "\n".join(rows), facts)


def figure3() -> FigureResult:
    """Fig. 3: HighLight's data layout — a tertiary segment cached on disk,
    states tracked in the ifile and tsegfile."""
    bed = harness.make_highlight(partition_bytes=64 * MB, n_platters=4)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app
    fs.mkdir("/sat", app)
    fs.write_path("/sat/image0", b"\x42" * (1536 * 1024), actor=app)
    fs.checkpoint(app)
    app.sleep(600)
    bed.migrator.migrate_file("/sat/image0", app)
    bed.migrator.flush(app)
    fs.checkpoint(app)

    rows = ["secondary (disk) segments:"] + _segment_rows(fs)
    rows.append("tertiary (tsegfile) segments, volume 0:")
    for seg_in_vol in range(4):
        use = fs.tsegfile.seguse(0, seg_in_vol)
        rows.append(f"  tseg {seg_in_vol} [{_state_key(use.flags):>5}] "
                    f"live={use.live_bytes:>8}")
    cached = [(t, d) for t, d in
              ((t, fs.cache.lookup(t)) for t in fs.cache.lines())]
    for tsegno, disk_segno in cached:
        rows.append(f"  cached: tertiary seg {tsegno} -> disk seg "
                    f"{disk_segno}")

    line_flags = [fs.ifile.seguse(d).flags for _t, d in cached]
    facts = {
        "has_cached_line": bool(cached),
        "lines_flagged": all(f & SEG_CACHED for f in line_flags),
        "tags_match": all(
            fs.ifile.seguse(d).cache_tag == t for t, d in cached),
        "tertiary_dirty": fs.tsegfile.seguse(0, 0).is_dirty(),
    }
    return FigureResult("Figure 3 — HighLight data layout",
                        "\n".join(rows), facts)


def figure4() -> FigureResult:
    """Fig. 4: allocation of block addresses to devices."""
    bed = harness.make_highlight(partition_bytes=64 * MB, n_platters=3)
    aspace = bed.fs.aspace
    lo, hi = aspace.dead_zone
    rows = [
        "block address space (segments):",
        f"  disk:      [0, {aspace.disk_nsegs}) "
        f"(blocks shifted by {RESERVED_BLOCKS} boot blocks)",
        f"  dead zone: [{lo}, {hi})  (access -> error)",
    ]
    for vol in range(len(aspace.volume_seg_counts)):
        start = aspace.tertiary_segno(vol, 0)
        count = aspace.volume_seg_counts[vol]
        rows.append(f"  volume {vol}:  [{start}, {start + count}) "
                    f"({count} segments, descending placement)")
    rows.append(f"  unusable top segment: {aspace.total_segs - 1} "
                f"(out-of-band -1 + boot shift)")

    v0 = aspace.tertiary_segno(0, 0)
    v1 = aspace.tertiary_segno(1, 0) if len(
        aspace.volume_seg_counts) > 1 else 0
    facts = {
        "disk_at_bottom": aspace.seg_base(0) == RESERVED_BLOCKS,
        "volume0_at_top": v0 + aspace.volume_seg_counts[0]
        == aspace.total_segs - 1,
        "volumes_descend": v1 < v0,
        "dead_zone_errors": True,
    }
    try:
        aspace.check(aspace.seg_base((lo + hi) // 2))
        facts["dead_zone_errors"] = False
    except AddressError:
        pass
    return FigureResult("Figure 4 — block address allocation",
                        "\n".join(rows), facts)


def figure5() -> FigureResult:
    """Fig. 5: the layered architecture — count traffic through each layer
    while the full pipeline (migrator, service, I/O server, Footprint,
    drivers) handles one round trip."""
    bed = harness.make_highlight(partition_bytes=64 * MB, n_platters=4)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app
    fs.write_path("/layered.bin", b"L" * (1200 * 1024), actor=app)
    fs.checkpoint(app)
    app.sleep(600)
    bed.migrator.migrate_file("/layered.bin", app)
    bed.migrator.flush(app)
    fs.service.flush_cache(app)
    fs.drop_caches(app, drop_inodes=True)
    fs.read_path("/layered.bin", 0, 64 * 1024)

    io = fs.ioserver
    rows = [
        "user space : migrator, cleaner, service process, I/O server",
        "kernel     : HighLight -> block map driver & segment cache",
        "             -> concatenated disk driver | tertiary driver",
        "",
        f"  migrator: {bed.migrator.stats.files_migrated} file(s), "
        f"{bed.migrator.stats.segments_staged} staging segment(s)",
        f"  I/O server: {io.segments_written} write-out(s), "
        f"{io.segments_fetched} fetch(es)",
        f"  segment cache: hits={fs.cache.hits} misses={fs.cache.misses}",
        f"  jukebox robot swaps: {bed.jukebox.swap_count}",
    ]
    facts = {
        "staged": bed.migrator.stats.segments_staged > 0,
        "written_out": io.segments_written > 0,
        "fetched_back": io.segments_fetched > 0,
        "cache_served_reads": fs.cache.hits > 0,
    }
    return FigureResult("Figure 5 — layered architecture (live trace)",
                        "\n".join(rows), facts)


ALL_FIGURES = [figure1, figure2, figure3, figure4, figure5]
