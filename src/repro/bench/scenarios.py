"""Mixed-load bench scenarios (beyond the paper's tables and figures).

``contention`` reproduces the failure mode the tertiary request
scheduler exists for: a client demand-fetching one file while background
work — migration write-outs and cleaner segment reads against *other*
volumes — arrives interleaved on the same service timeline.  With the
pre-scheduler single FIFO (pass-through mode) every background request
drags the read drive to its own volume, so the next demand fetch pays a
13.5 s robot exchange to bring its volume back.  With the scheduler on,
background classes queue and drain volume-batched after the demand
stream, so demand fetches run at media speed.

Run it with ``python -m repro.bench --scenario contention``.  The
run prints mean demand-fetch latency and jukebox mount switches for both
modes and records them as ``contention_*`` gauges in the observability
snapshot.

``chaos`` is the fault-injection acceptance run for ``repro.faults``: a
seeded fault storm (transient media errors, mount failures, a limping
drive, and one destroyed medium) over a replicated archive, asserting
zero corruption — every acknowledged byte reads back identical, before
and after the repair daemon re-homes the dead volume — at least one
quarantine, and demand p99 latency bounded against the fault-free
baseline.  ``python -m repro.bench --scenario chaos`` (add ``--quick``
for the CI-sized run).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.bench import harness
from repro.bench.cluster_scenario import _p99, run_cluster
from repro.bench.frontend_scenario import run_frontend
from repro.core.highlight import HighLightConfig
from repro.core.replicas import ReplicaManager
from repro.faults import (FaultManager, FaultPlan, FaultSpec,
                          KIND_DRIVE_TIMEOUT, KIND_MEDIA_DEAD,
                          KIND_MEDIA_ERROR, KIND_MOUNT_FAILURE,
                          KIND_SLOW_IO)
from repro.persist.crashsim import CrashHarness, payload
from repro.sched import CLASS_CLEANER, MODE_PASSTHROUGH, MODE_SCHEDULED
from repro.sim.actor import Actor
from repro.util.units import KB, MB

#: Hot / cold file sizes (segments are 1 MB: eight demand fetches, eight
#: cleaner reads, eight write-outs per run).  At 4 MB per platter the
#: three files land on disjoint volume pairs, so in pass-through mode
#: every background request costs the demand stream a media switch.
_FILE_MB = 8
_CHUNK_BLOCKS = 256  # 1 MB of 4 KB blocks


def _build(mode: str):
    """A compact two-drive jukebox bed with files spread over volumes."""
    config = HighLightConfig(sched_mode=mode,
                             sched_aging_threshold=3600.0,
                             sched_batch_residency=8)
    bed = harness.make_highlight(partition_bytes=128 * MB, n_platters=8,
                                 platter_constraint=4 * MB, config=config)
    harness.preload_write_volume(bed)
    fs, app = bed.fs, bed.app
    fs.mkdir("/hot")
    fs.mkdir("/cold")
    fs.write_path("/hot/a.bin", bytes(range(256)) * (_FILE_MB * 4096))
    fs.write_path("/cold/b.bin", b"\xb0" * (_FILE_MB * MB))
    fs.write_path("/cold/c.bin", b"\xc0" * (_FILE_MB * MB))
    fs.checkpoint()
    app.sleep(3600)  # let everything go cold
    # a and b move to tertiary now (a is the demand-fetch target, b the
    # cleaner-scan target); c stays disk-resident and migrates *during*
    # the load phase, producing the competing write-out stream.
    bed.migrator.migrate_file("/hot/a.bin", app, unit_tag="a")
    bed.migrator.flush(app)
    bed.migrator.migrate_file("/cold/b.bin", app, unit_tag="b")
    bed.migrator.flush(app)
    fs.sched.pump(app)  # the build phase's write-outs are not the load
    fs.checkpoint()
    fs.service.flush_cache(app)
    fs.drop_caches(app, drop_inodes=True)
    return bed


def _tagged_tsegnos(bed, tag: str) -> List[int]:
    return sorted(t for t, unit in bed.migrator.hint_table.items()
                  if unit == tag)


def _run_mode(mode: str) -> Dict[str, float]:
    bed = _build(mode)
    fs, app = bed.fs, bed.app
    sched = fs.sched
    background = Actor("background", clock=app.clock)
    b_segs = _tagged_tsegnos(bed, "b")
    swaps_before = bed.jukebox.swap_count

    latencies: List[float] = []
    for i in range(_FILE_MB):
        # Background arrivals first: in the single-FIFO world they sit
        # in front of the demand fetch and drag the drives away.
        tseg = b_segs[i % len(b_segs)]
        sched.submit(CLASS_CLEANER, background,
                     lambda a, t=tseg: sched.read_segment(a, t),
                     volume=sched.volume_id(tseg), tag=tseg, table4=True)
        bed.migrator.migrate_file("/cold/c.bin", background,
                                  lbn_range=(i * _CHUNK_BLOCKS,
                                             (i + 1) * _CHUNK_BLOCKS),
                                  unit_tag="c")
        t0 = app.time
        fs.read_path("/hot/a.bin", i * MB, MB)
        latencies.append(app.time - t0)
    bed.migrator.flush(background)
    pumped = sched.pump(background)

    return {
        "mean_demand_seconds": sum(latencies) / len(latencies),
        "max_demand_seconds": max(latencies),
        "mount_switches": float(bed.jukebox.swap_count - swaps_before),
        "makespan_seconds": app.time,
        "pumped": float(pumped),
        "sched_volume_switches": float(sched.volume_switches),
        "demand_fetches": float(fs.stats.demand_fetches),
    }


def run_contention(quick: bool = False, seed: Optional[int] = None
                   ) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Demand fetches vs. background write-outs/cleaner reads, scheduler
    off (pass-through FIFO) and on; returns (data, report).

    ``quick`` and ``seed`` are accepted for CLI uniformity; the scenario
    is already CI-sized and draws no random numbers (the workload is a
    fixed interleave), so the seed only lands in the snapshot header.
    """
    data = {}
    for mode in (MODE_PASSTHROUGH, MODE_SCHEDULED):
        data[mode] = _run_mode(mode)
        obs.gauge("contention_mean_demand_seconds",
                  "mean demand-fetch latency in the contention scenario",
                  ("mode",)).labels(mode=mode).set(
                      data[mode]["mean_demand_seconds"])
        obs.gauge("contention_mount_switches",
                  "jukebox mount switches in the contention scenario",
                  ("mode",)).labels(mode=mode).set(
                      data[mode]["mount_switches"])

    off, on = data[MODE_PASSTHROUGH], data[MODE_SCHEDULED]
    speedup = off["mean_demand_seconds"] / on["mean_demand_seconds"]
    lines = [
        "contention: demand fetches vs. background write-outs + cleaner "
        "reads",
        f"  {'mode':<12} {'mean demand':>12} {'max demand':>12} "
        f"{'mounts':>7} {'makespan':>10}",
    ]
    for mode in (MODE_PASSTHROUGH, MODE_SCHEDULED):
        d = data[mode]
        lines.append(
            f"  {mode:<12} {d['mean_demand_seconds']:>10.2f} s "
            f"{d['max_demand_seconds']:>10.2f} s {d['mount_switches']:>7.0f}"
            f" {d['makespan_seconds']:>8.1f} s")
    lines.append(
        f"  scheduler on: {speedup:.1f}x lower mean demand latency, "
        f"{off['mount_switches'] - on['mount_switches']:.0f} fewer mount "
        f"switches")
    return data, "\n".join(lines)


# -- chaos: the repro.faults acceptance storm ---------------------------------

_CHAOS_SEED = 2993  # the paper's vintage; any fixed seed replays the storm


def _chaos_payload(tag: int, nbytes: int) -> bytes:
    """Deterministic, volume-spanning, non-trivial file content."""
    stride = bytes((tag * 53 + j * 17) & 0xFF for j in range(251))
    return (stride * (nbytes // len(stride) + 1))[:nbytes]


def _chaos_files(quick: bool) -> Dict[str, bytes]:
    file_mb = 2 if quick else 4
    n_files = 2 if quick else 3
    return {f"/archive/f{i}.bin": _chaos_payload(i + 1, file_mb * MB)
            for i in range(n_files)}


def _chaos_build(files: Dict[str, bytes], seed: int = _CHAOS_SEED):
    """A replicated archive on the compact jukebox bed: every migrated
    segment has one replica on a different volume (copies=1)."""
    config = HighLightConfig(fault_retry_seed=seed)
    bed = harness.make_highlight(partition_bytes=128 * MB, n_platters=8,
                                 platter_constraint=4 * MB, config=config)
    harness.preload_write_volume(bed)
    replicas = ReplicaManager(bed.fs, copies=1)
    fs, app = bed.fs, bed.app
    fs.mkdir("/archive")
    for path, payload in files.items():
        fs.write_path(path, payload)
    fs.checkpoint()
    app.sleep(3600)
    for path in files:
        bed.migrator.migrate_file(path, app)
    bed.migrator.flush(app)
    fs.sched.pump(app)
    fs.checkpoint()
    fs.service.flush_cache(app)
    fs.drop_caches(app, drop_inodes=True)
    if replicas.replicas_written < len(files):
        raise RuntimeError(
            f"chaos bed under-replicated: {replicas.replicas_written} "
            f"replica segments for {len(files)} files")
    return bed, replicas


def _chaos_plan(bed, seed: int = _CHAOS_SEED) -> FaultPlan:
    """The storm: one destroyed medium under migrated data, plus
    transient noise everywhere (all draws from one seeded RNG)."""
    victim = bed.fs.tsegfile.volumes[0].volume_id
    plan = FaultPlan(seed=seed)
    plan.add(FaultSpec(KIND_MEDIA_DEAD, volume_id=victim, op="read"))
    plan.add(FaultSpec(KIND_MEDIA_ERROR, op="read", count=4,
                       probability=0.12))
    plan.add(FaultSpec(KIND_MOUNT_FAILURE, op="mount", count=2,
                       probability=0.5, delay=13.5))
    plan.add(FaultSpec(KIND_DRIVE_TIMEOUT, op="read", count=2,
                       probability=0.2, delay=2.0))
    plan.add(FaultSpec(KIND_SLOW_IO, op="read", probability=0.25,
                       delay=0.4))
    return plan


def _chaos_read_back(bed, files: Dict[str, bytes]) -> Tuple[List[float], int]:
    """Demand-read every acknowledged byte back in 1 MB chunks; returns
    (per-chunk latencies, corrupt chunk count)."""
    fs, app = bed.fs, bed.app
    latencies: List[float] = []
    corrupt = 0
    for path, payload in files.items():
        for off in range(0, len(payload), MB):
            t0 = app.time
            data = fs.read_path(path, off, MB)
            latencies.append(app.time - t0)
            if data != payload[off:off + MB]:
                corrupt += 1
    return latencies, corrupt


def run_chaos(quick: bool = False,
              seed: Optional[int] = None) -> Tuple[Dict[str, float], str]:
    """Seeded fault storm over a replicated archive vs. the fault-free
    baseline; returns (data, report) and raises on any violated
    guarantee (corruption, missing quarantine, unbounded latency).
    ``seed`` reseeds both the storm's fault draws and the retry jitter
    (default ``_CHAOS_SEED``)."""
    seed = _CHAOS_SEED if seed is None else int(seed)
    files = _chaos_files(quick)

    # Fault-free baseline: identical bed, identical workload, no plan.
    bed, _ = _chaos_build(files, seed)
    base_lat, base_bad = _chaos_read_back(bed, files)

    # The storm, then the repair daemon, then a full re-read.
    bed, replicas = _chaos_build(files, seed)
    fm = FaultManager(bed.fs, plan=_chaos_plan(bed, seed))
    storm_lat, storm_bad = _chaos_read_back(bed, files)
    rehomed = fm.repair.run_once(bed.app)
    after_lat, after_bad = _chaos_read_back(bed, files)

    health = fm.health
    quarantined = sum(1 for vid in bed.jukebox.volumes
                      if not health.health_of(vid).serving)
    data = {
        "baseline_p99_seconds": _p99(base_lat),
        "storm_p99_seconds": _p99(storm_lat),
        "after_repair_p99_seconds": _p99(after_lat),
        "corrupt_chunks": float(base_bad + storm_bad + after_bad),
        "faults_injected": float(fm.injector.injected),
        "retry_attempts": float(fm.retry.attempts),
        "degraded_reads": float(replicas.degraded_reads),
        "quarantined_volumes": float(quarantined),
        "segments_rehomed": float(rehomed),
        "volumes_retired": float(fm.repair.volumes_retired),
        "seed": float(seed),
    }
    for name, value in data.items():
        obs.gauge(f"chaos_{name}",
                  "chaos scenario outcome (see repro.bench.scenarios)"
                  ).set(value)

    bound = 5.0 * data["baseline_p99_seconds"] + 90.0
    problems = []
    if data["corrupt_chunks"]:
        problems.append(f"{data['corrupt_chunks']:.0f} corrupt chunks")
    if quarantined < 1:
        problems.append("no volume was quarantined")
    if fm.injector.injected < 1:
        problems.append("no fault ever fired")
    if data["storm_p99_seconds"] > bound:
        problems.append(
            f"storm p99 {data['storm_p99_seconds']:.2f}s exceeds bound "
            f"{bound:.2f}s")
    if problems:
        raise RuntimeError("chaos scenario failed: " + "; ".join(problems))

    lines = [
        "chaos: seeded fault storm over a replicated archive "
        f"({'quick' if quick else 'full'}, seed {seed})",
        f"  faults injected {data['faults_injected']:.0f}, retries "
        f"{data['retry_attempts']:.0f}, degraded reads "
        f"{data['degraded_reads']:.0f}",
        f"  quarantined {quarantined} volume(s); repair re-homed "
        f"{data['segments_rehomed']:.0f} segment(s), retired "
        f"{data['volumes_retired']:.0f} volume(s)",
        f"  demand p99: baseline {data['baseline_p99_seconds']:.2f} s, "
        f"storm {data['storm_p99_seconds']:.2f} s (bound {bound:.2f} s), "
        f"after repair {data['after_repair_p99_seconds']:.2f} s",
        "  zero corruption: every acknowledged byte read back identical",
    ]
    return data, "\n".join(lines)


# -- the crashes scenario -------------------------------------------------

_CRASH_SEED = 4242


def _crash_point(phase: str, after_writes: int, seed: int
                 ) -> Dict[str, float]:
    """Run one (phase, write-index) crash point on the crash matrix's
    harness; returns its outcome."""
    h = CrashHarness()
    fired = h.run_phase(phase, after_writes, tear_blocks=after_writes % 3,
                        seed=seed)
    report = h.crash_and_recover()
    check = h.check()
    return {
        "fired": float(fired),
        "ok": 1.0 if check.ok else 0.0,
        "requeued": float(report.requeued_writeouts),
        "errors": float(len(check.errors)),
    }


def run_crashes(quick: bool = False,
                seed: Optional[int] = None) -> Tuple[Dict[str, float], str]:
    """The crash-consistency gate: kill the process model at seeded
    store-write points across pipeline phases, restart from the media,
    and demand zero acknowledged-byte loss plus a clean fsck at every
    point; then one scrub leg proving injected bit-rot is caught within
    a single cycle.  Every leg runs on the crash matrix's
    :class:`~repro.persist.crashsim.CrashHarness`.  Raises on any
    violated guarantee.  The kill matrix itself is exhaustive (every
    phase x point); ``seed`` picks the payload bytes and the rotted
    bit."""
    seed = _CRASH_SEED if seed is None else int(seed)
    phases = ("segwrite", "checkpoint", "migration")
    points = (0, 2, 5) if quick else (0, 1, 2, 3, 5, 7)

    outcomes = []
    failures = []
    for phase in phases:
        for after_writes in points:
            out = _crash_point(phase, after_writes, seed)
            outcomes.append(out)
            if not out["ok"]:
                failures.append(f"{phase}@{after_writes} "
                                f"({out['errors']:.0f} fsck errors)")
    # The scrub leg: bit-rot one tertiary copy; the scrubber must catch
    # it in one cycle and quarantine the volume.
    h = CrashHarness()
    h.commit("/rot.dat", payload(seed, 512 * KB))
    h.migrate("/rot.dat")
    vol_id = h.rot(seed)
    rot = h.persist.make_scrubber().run_cycle(h.app)
    rot_detected = (rot["mismatches"] >= 1
                    and not h.persist.health.health_of(vol_id).serving)

    data = {
        "crash_points": float(len(outcomes)),
        "crashes_fired": sum(o["fired"] for o in outcomes),
        "recoveries_clean": sum(o["ok"] for o in outcomes),
        "writeouts_requeued": sum(o["requeued"] for o in outcomes),
        "scrub_rot_detected": float(rot_detected),
        "scrub_ledger_entries": float(len(h.persist.ledger)),
        "seed": float(seed),
    }
    for name, value in data.items():
        obs.gauge(f"crashes_{name}",
                  "crashes scenario outcome (see repro.bench.scenarios)"
                  ).set(value)

    problems = []
    if failures:
        problems.append("unclean recoveries: " + ", ".join(failures))
    if data["crashes_fired"] < 1:
        problems.append("no crash point ever fired")
    if data["scrub_rot_detected"] < 1:
        problems.append("scrubber missed the injected bit-rot")
    if problems:
        raise RuntimeError("crashes scenario failed: " + "; ".join(problems))

    lines = [
        "crashes: seeded kill points across the write/checkpoint/"
        f"migration pipeline ({'quick' if quick else 'full'}, "
        f"seed {seed})",
        f"  {data['crash_points']:.0f} crash points, "
        f"{data['crashes_fired']:.0f} fired mid-write, "
        f"{data['writeouts_requeued']:.0f} write-outs requeued",
        f"  every recovery clean: {data['recoveries_clean']:.0f}/"
        f"{data['crash_points']:.0f} fsck-verified, zero acknowledged "
        "bytes lost",
        f"  scrub leg: bit-rot detected within one cycle over "
        f"{data['scrub_ledger_entries']:.0f} ledgered segment(s)",
    ]
    return data, "\n".join(lines)


SCENARIOS = {
    "contention": run_contention,
    "chaos": run_chaos,
    "crashes": run_crashes,
    "cluster": run_cluster,
    "frontend": run_frontend,
}
