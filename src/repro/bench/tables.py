"""One runner per paper table.  Each returns structured results plus a
:class:`~repro.bench.report.TableReport` for printing, and the paper's
published values live here so benchmarks can assert the *shape* holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench import harness
from repro.bench.report import TableReport, throughput_kbs
from repro.blockdev import profiles
from repro.core.migrator import MigrationPipeline
from repro.footprint.robot import JukeboxFootprint
from repro.lfs.summary import HEADER_SIZE, SegmentSummary, FileInfo
from repro.sched.scheduler import (CAT_FOOTPRINT_WRITE, CAT_IOSERVER_READ,
                                   CAT_QUEUING)
from repro.sim.actor import Actor
from repro.util.units import KB, MB
from repro.workloads.largeobject import LargeObjectBenchmark, PhaseResult

# ---------------------------------------------------------------------------
# Paper reference values
# ---------------------------------------------------------------------------

#: Table 1: summary-block field widths (bytes).
PAPER_TABLE1 = {
    "ss_sumsum": 4, "ss_datasum": 4, "ss_next": 4, "ss_create": 4,
    "ss_nfinfo": 2, "ss_ninos": 2, "ss_flags": 2, "ss_pad": 2,
    "per_file": 12, "per_file_block": 4, "per_inode_block": 4,
}

#: Table 2: throughput in KB/s per phase, per configuration.
PAPER_TABLE2 = {
    "ffs":        [1002, 1024, 152, 315, 152, 710],
    "lfs":        [819, 639, 154, 749, 154, 873],
    "hl-ondisk":  [813, 617, 152, 749, 152, 749],
    "hl-incache": [813, 596, 148, 807, 148, 749],
}

TABLE2_PHASES = [
    "10MB sequential read", "10MB sequential write",
    "1MB random read", "1MB random write",
    "1MB read, 80/20 locality", "1MB write, 80/20 locality",
]

#: Table 3: (first byte, total) seconds per file size per configuration.
PAPER_TABLE3 = {
    "ffs":         {10 * KB: (0.06, 0.09), 100 * KB: (0.06, 0.27),
                    1 * MB: (0.06, 1.29), 10 * MB: (0.07, 11.89)},
    "hl-incache":  {10 * KB: (0.11, 0.12), 100 * KB: (0.11, 0.27),
                    1 * MB: (0.10, 1.55), 10 * MB: (0.09, 13.68)},
    "hl-uncached": {10 * KB: (3.57, 3.59), 100 * KB: (3.59, 3.73),
                    1 * MB: (3.51, 8.22), 10 * MB: (3.57, 44.23)},
}

#: Table 4: percentage of migration elapsed time per component.
PAPER_TABLE4 = {"footprint_write": 62.0, "ioserver_read": 37.0,
                "queuing": 1.0}

#: Table 5: raw device throughput (KB/s) and the volume-change time (s).
PAPER_TABLE5 = {
    "mo_read": 451.0, "mo_write": 204.0,
    "rz57_read": 1417.0, "rz57_write": 993.0,
    "rz58_read": 1491.0, "rz58_write": 1261.0,
    "volume_change": 13.5,
}

#: Table 6: migrator throughput (KB/s) per phase per staging config.
PAPER_TABLE6 = {
    "rz57":         {"contention": 111.0, "no_contention": 192.0,
                     "overall": 135.0},
    "rz57+rz58":    {"contention": 127.0, "no_contention": 202.0,
                     "overall": 149.0},
    "rz57+hp7958a": {"contention": 46.8, "no_contention": 145.0,
                     "overall": 99.0},
}

MIGRATION_FILE_BYTES = 12_500 * 4096  # the 51.2 MB large object


# ---------------------------------------------------------------------------
# Table 1 — partial-segment summary layout
# ---------------------------------------------------------------------------

def run_table1() -> Tuple[Dict[str, int], TableReport]:
    """Measure the implemented summary layout against Table 1."""
    measured = {
        "ss_sumsum": 4, "ss_datasum": 4, "ss_next": 4, "ss_create": 4,
        "ss_nfinfo": 2, "ss_ninos": 2, "ss_flags": 2, "ss_pad": 2,
    }
    # Derive the variable-size costs from the serialiser itself.
    base = SegmentSummary()
    one_file = SegmentSummary(finfos=[FileInfo(ino=9, lastlength=4096,
                                               blocks=[])])
    measured["per_file"] = one_file.bytes_needed() - base.bytes_needed()
    one_file.finfos[0].blocks.append(0)
    measured["per_file_block"] = (one_file.bytes_needed()
                                  - base.bytes_needed()
                                  - measured["per_file"])
    with_ino = SegmentSummary(inode_daddrs=[17])
    measured["per_inode_block"] = with_ino.bytes_needed() - base.bytes_needed()
    assert HEADER_SIZE == sum(v for k, v in measured.items()
                              if k.startswith("ss_"))

    report = TableReport("Table 1 — partial segment summary block layout")
    for key, paper_val in PAPER_TABLE1.items():
        report.add(key, paper_val, measured[key], unit="bytes")
    return measured, report


# ---------------------------------------------------------------------------
# Table 2 — large-object performance
# ---------------------------------------------------------------------------

def _table2_bed(config: str) -> Tuple[harness.Testbed, LargeObjectBenchmark]:
    if config == "ffs":
        bed = harness.make_ffs()
    elif config == "lfs":
        bed = harness.make_lfs()
    else:
        bed = harness.make_highlight()
        harness.preload_write_volume(bed)
    bench = LargeObjectBenchmark(bed.fs, bed.app)
    if config == "hl-incache":
        bench.populate()
        bed.app.sleep(600)
        bed.migrator.migrate_file(bench.path, bed.app)
        bed.migrator.flush(bed.app)
        bed.fs.checkpoint(bed.app)
    return bed, bench

def run_table2(configs: Optional[List[str]] = None,
               seq_frames: int = 2500, rand_frames: int = 250
               ) -> Tuple[Dict[str, List[PhaseResult]], TableReport]:
    """The Stonebraker/Olson large-object benchmark, all four columns."""
    configs = configs or list(PAPER_TABLE2)
    results: Dict[str, List[PhaseResult]] = {}
    report = TableReport("Table 2 — large object performance")
    for config in configs:
        _bed, bench = _table2_bed(config)
        phases = bench.run(seq_frames=seq_frames, rand_frames=rand_frames)
        results[config] = phases
        for phase, paper_val in zip(phases, PAPER_TABLE2[config]):
            report.add(f"{config}: {phase.phase}", paper_val,
                       phase.throughput / KB)
    report.notes.append(
        "80/20 read phases run faster than the paper's (our read-ahead "
        "model retains cache benefit within the phase); all other shapes "
        "hold — see EXPERIMENTS.md.")
    return results, report


# ---------------------------------------------------------------------------
# Table 3 — access delays
# ---------------------------------------------------------------------------

TABLE3_SIZES = [10 * KB, 100 * KB, 1 * MB, 10 * MB]
_STDIO_BUFFER = 8 * KB


def _measure_access(fs, actor: Actor, path: str) -> Tuple[float, float]:
    """(time to first byte, total read time) with an 8 KB stdio buffer."""
    start = actor.time
    inum = fs.lookup(path, actor)
    size = fs.get_inode(inum, actor).size
    fs.read(inum, 0, min(_STDIO_BUFFER, size), actor)
    first_byte = actor.time - start
    offset = _STDIO_BUFFER
    while offset < size:
        fs.read(inum, offset, min(_STDIO_BUFFER, size - offset), actor)
        offset += _STDIO_BUFFER
    return first_byte, actor.time - start


def run_table3() -> Tuple[Dict[str, Dict[int, Tuple[float, float]]],
                          TableReport]:
    """Access delays for 10 KB..10 MB files across the three columns."""
    results: Dict[str, Dict[int, Tuple[float, float]]] = {}

    def paths():
        return {size: f"/data/file_{size}" for size in TABLE3_SIZES}

    # FFS column.
    bed = harness.make_ffs()
    bed.fs.mkdir("/data", bed.app)
    for size, path in paths().items():
        bed.fs.write_path(path, b"\xa5" * size, actor=bed.app)
    bed.fs.checkpoint(bed.app)
    bed.fs.drop_caches(bed.app, drop_inodes=True)
    results["ffs"] = {}
    for size, path in paths().items():
        bed.fs.drop_caches(bed.app, drop_inodes=True)
        results["ffs"][size] = _measure_access(bed.fs, bed.app, path)

    # HighLight columns share one bed: migrate, then measure cached and
    # (after a cache flush) uncached.
    bed = harness.make_highlight()
    harness.preload_write_volume(bed)
    bed.fs.mkdir("/data", bed.app)
    for size, path in paths().items():
        bed.fs.write_path(path, b"\xa5" * size, actor=bed.app)
    bed.fs.checkpoint(bed.app)
    bed.app.sleep(600)
    for size, path in paths().items():
        bed.migrator.migrate_file(path, bed.app)
    bed.migrator.flush(bed.app)
    bed.fs.checkpoint(bed.app)

    results["hl-incache"] = {}
    for size, path in paths().items():
        bed.fs.drop_caches(bed.app, drop_inodes=True)
        results["hl-incache"][size] = _measure_access(bed.fs, bed.app, path)

    results["hl-uncached"] = {}
    for size, path in paths().items():
        # Newly-mounted filesystem with an empty segment cache; the
        # tertiary volume is in the drive (no swap in time-to-first-byte).
        bed.fs.service.flush_cache(bed.app)
        bed.fs.drop_caches(bed.app, drop_inodes=True)
        results["hl-uncached"][size] = _measure_access(bed.fs, bed.app, path)

    report = TableReport("Table 3 — access delays (seconds)")
    for config, per_size in results.items():
        for size in TABLE3_SIZES:
            fb, total = per_size[size]
            pfb, ptotal = PAPER_TABLE3[config][size]
            label = f"{config}: {size // KB}KB" if size < MB else \
                f"{config}: {size // MB}MB"
            report.add(label + " first byte", pfb, fb, unit="s")
            report.add(label + " total", ptotal, total, unit="s")
    return results, report


# ---------------------------------------------------------------------------
# Tables 4 & 6 — migration pipeline
# ---------------------------------------------------------------------------

@dataclass
class MigrationRunResult:
    """Phase timings of one pipelined migration run."""

    total_bytes: int
    start_time: float
    migrator_finish: float
    finish: float
    contention_bytes: int
    breakdown: Dict[str, float]

    @property
    def contention_seconds(self) -> float:
        return self.migrator_finish - self.start_time

    @property
    def drain_seconds(self) -> float:
        return self.finish - self.migrator_finish

    def contention_rate(self) -> float:
        return throughput_kbs(self.contention_bytes, self.contention_seconds)

    def no_contention_rate(self) -> float:
        return throughput_kbs(self.total_bytes - self.contention_bytes,
                              self.drain_seconds)

    def overall_rate(self) -> float:
        return throughput_kbs(self.total_bytes,
                              self.finish - self.start_time)


def run_migration_pipeline(staging: Optional[str] = None,
                           file_bytes: int = MIGRATION_FILE_BYTES
                           ) -> MigrationRunResult:
    """Migrate one large file through the overlapped pipeline."""
    staging_profile = {None: None, "rz58": profiles.RZ58,
                       "hp7958a": profiles.HP7958A}[staging]
    bed = harness.make_highlight(staging_profile=staging_profile)
    harness.preload_write_volume(bed)
    path = "/big.obj"
    inum = bed.fs.create(path, actor=bed.app)
    chunk = 256 * KB
    payload = b"\x5a" * chunk
    for off in range(0, file_bytes, chunk):
        n = min(chunk, file_bytes - off)
        bed.fs.write(inum, off, payload[:n], bed.app)
    bed.fs.checkpoint(bed.app)
    bed.app.sleep(600)

    mig_actor = Actor("migrator")
    io_actor = Actor("io-server")
    mig_actor.sleep_until(bed.app.time)
    io_actor.sleep_until(bed.app.time)
    bed.fs.ioserver.account.clear()
    pipeline = MigrationPipeline(bed.fs, bed.migrator, [path],
                                 migrator_actor=mig_actor,
                                 ioserver_actor=io_actor)
    start = bed.app.time
    pipeline.run()

    boundary = pipeline.migrator_finish_time
    contention_bytes = sum(n for _t, end, n in bed.fs.ioserver.writeout_log
                           if end <= boundary)
    total = sum(n for _t, _end, n in bed.fs.ioserver.writeout_log)
    account = bed.fs.ioserver.account
    breakdown = {
        "footprint_write": account.get(CAT_FOOTPRINT_WRITE),
        "ioserver_read": account.get(CAT_IOSERVER_READ),
        "queuing": account.get(CAT_QUEUING),
    }
    return MigrationRunResult(
        total_bytes=total, start_time=start,
        migrator_finish=boundary, finish=pipeline.finish_time,
        contention_bytes=contention_bytes, breakdown=breakdown)


def run_table4(file_bytes: int = MIGRATION_FILE_BYTES
               ) -> Tuple[Dict[str, float], TableReport]:
    """Elapsed-time breakdown of the migration pipeline (Table 4)."""
    result = run_migration_pipeline(None, file_bytes)
    total = sum(result.breakdown.values())
    percentages = {k: 100.0 * v / total for k, v in result.breakdown.items()}
    report = TableReport("Table 4 — migration elapsed-time breakdown (%)")
    labels = {"footprint_write": "Footprint write",
              "ioserver_read": "I/O server read",
              "queuing": "Migrator queuing"}
    for key, label in labels.items():
        report.add(label, PAPER_TABLE4[key], percentages[key], unit="%")
    return percentages, report


def run_table6(configs: Optional[List[Optional[str]]] = None,
               file_bytes: int = MIGRATION_FILE_BYTES
               ) -> Tuple[Dict[str, Dict[str, float]], TableReport]:
    """Migrator throughput with/without arm contention (Table 6)."""
    config_names = {None: "rz57", "rz58": "rz57+rz58",
                    "hp7958a": "rz57+hp7958a"}
    configs = configs if configs is not None else [None, "rz58", "hp7958a"]
    results: Dict[str, Dict[str, float]] = {}
    report = TableReport("Table 6 — migrator throughput (KB/s)")
    for staging in configs:
        name = config_names[staging]
        run = run_migration_pipeline(staging, file_bytes)
        results[name] = {
            "contention": run.contention_rate(),
            "no_contention": run.no_contention_rate(),
            "overall": run.overall_rate(),
        }
        for phase in ("contention", "no_contention", "overall"):
            report.add(f"{name}: {phase}", PAPER_TABLE6[name][phase],
                       results[name][phase])
    return results, report


# ---------------------------------------------------------------------------
# Table 5 — raw device measurements
# ---------------------------------------------------------------------------

def run_table5(transfer_mb: int = 10) -> Tuple[Dict[str, float], TableReport]:
    """Sequential 1 MB raw transfers plus the volume-change time."""
    results: Dict[str, float] = {}

    for key, profile in (("rz57", profiles.RZ57), ("rz58", profiles.RZ58)):
        disk = profiles.make_disk(profile)
        actor = Actor("dd")
        # Table 5 measures the bare device, dd-style: raw access is the
        # point of the benchmark, not a block-map bypass.
        disk.read(actor, 0, 1)  # noqa: HL002 -- spin-up: position the arm
        t0 = actor.time
        for i in range(transfer_mb):
            disk.read(actor, i * 256, 256)  # noqa: HL002, HL008 -- raw bench
        results[f"{key}_read"] = throughput_kbs(transfer_mb * MB,
                                                actor.time - t0)
        t0 = actor.time
        for i in range(transfer_mb):
            disk.write(actor, 100_000 + i * 256, bytes(MB))  # noqa: HL002, HL008 -- raw bench
        results[f"{key}_write"] = throughput_kbs(transfer_mb * MB,
                                                 actor.time - t0)

    jukebox = profiles.make_hp6300()
    footprint = JukeboxFootprint(jukebox)
    actor = Actor("dd-mo")
    footprint.read(actor, 0, 0, 1)  # load the platter
    t0 = actor.time
    for i in range(transfer_mb):
        footprint.write(actor, 0, i * 256, bytes(MB))  # noqa: HL008 -- raw bench
    results["mo_write"] = throughput_kbs(transfer_mb * MB, actor.time - t0)
    t0 = actor.time
    for i in range(transfer_mb):
        footprint.read(actor, 0, i * 256, 256)  # noqa: HL008 -- raw bench
    results["mo_read"] = throughput_kbs(transfer_mb * MB, actor.time - t0)

    # Volume change: eject -> first sector readable on the next platter.
    t0 = actor.time
    footprint.read(actor, 1, 0, 1)
    results["volume_change"] = actor.time - t0

    report = TableReport("Table 5 — raw device measurements")
    for key in ("mo_read", "mo_write", "rz57_read", "rz57_write",
                "rz58_read", "rz58_write"):
        report.add(key, PAPER_TABLE5[key], results[key])
    report.add("volume_change", PAPER_TABLE5["volume_change"],
               results["volume_change"], unit="s")
    return results, report
