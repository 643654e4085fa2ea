"""Which functions in ``src/repro`` does no driver enter?

``python3 benchmarks/reach.py`` runs each driver CI runs (tier-1 is not
one) with a ``sitecustomize`` hook first on ``PYTHONPATH``: a call-only
trace that dumps the ``src`` code objects entered.  Every function an
``ast`` walk finds in ``src/repro`` (abstract methods aside: their bodies
never run) that no driver entered must be covered by an ``UNREACHED_OK``
key naming it, its class or its module.  Exits 1 if one is not, a key
covers nothing unreached, or a driver failed or left no trace (a child
process that replaced its environment drops the hook).
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PY = sys.executable
DRIVERS = [
    [PY, "-m", "repro.bench"],
    *([PY, "-m", "repro.bench", "--scenario", s, "--quick"]
      for s in ("cluster", "frontend", "chaos", "contention", "crashes")),
    [PY, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable"],
    [PY, "-m", "repro.analysis", "src", "--format", "github"],
    *([PY, f"examples/{p.name}"]
      for p in sorted((ROOT / "examples").glob("*.py"))),
    [PY, "bench_e2e/run.py", "--quick"],
]

# "module:Qual.name" (the bench_e2e/layers.py spelling), "module:Class" or
# "module" -> why what it covers stays unreached.
UNREACHED_OK = {
    "repro.analysis.cli:_list_rules": "CLI flag `--list-rules`",
    "repro.analysis.core:AnalysisResult.counts_by_code": "CLI summary, printed only with a finding",
    "repro.analysis.core:Finding.format": "CLI text format (the default `--format`)",
    "repro.analysis.rules.hl009_retry_discipline:_escapes_loop": "HL009 branch only its fixture has",
    "repro.analysis.sanitize": "test tool (analysis/sanitize.py)",
    "repro.blockdev.datapath:set_sanitizer": "test tool (analysis/sanitize.py)",
    "repro.blockdev.extent:ExtentStore.discard": "item 11 uses it (ROADMAP 11)",
    "repro.blockdev.extent:ExtentStore.is_written": "the WORM blank check (item 1)",
    "repro.blockdev.extent:ExtentStore.written_in_range": "the WORM blank check (item 1)",
    "repro.blockdev.jukebox:Jukebox.read_refs": "bench_e2e/layers.py boundary (ROADMAP 5(j))",
    "repro.blockdev.jukebox:Jukebox.writev": "BlockIO verb under layers.py (ROADMAP 5(j))",
    "repro.blockdev.profiles:make_metrum": "the tape model (DESIGN.md device table; item 1)",
    "repro.blockdev.profiles:make_sony_worm": "the WORM model (DESIGN.md device table; item 1)",
    "repro.blockdev.tape:TapeDrive": "the tape model (DESIGN.md device table; item 1)",
    "repro.cluster.migrate": "item 7 decides (cluster/migrate.py)",
    "repro.cluster.node:ClusterNode.adopt_object": "item 7 decides (cluster/migrate.py)",
    "repro.cluster.node:ClusterNode.delete_object": "item 7 decides (cluster/migrate.py)",
    "repro.cluster.ring:HashRing.remove_shard": "item 7 decides (cluster/migrate.py)",
    "repro.core.addressing:AddressSpace.add_volume": "on-line growth, paper §6.3 (DESIGN.md)",
    "repro.core.addressing:AddressSpace.grow_disk": "on-line growth, paper §6.4 (DESIGN.md)",
    "repro.core.ioserver:IOServer.writeout": "bench_e2e/layers.py boundary",
    "repro.core.migrator:MigrationStats.add_inode": "Migrator(migrate_inodes=)",
    "repro.core.migrator:Migrator._stage_inode": "Migrator(migrate_inodes=)",
    "repro.core.migrator:Migrator.restage_line": "end-of-medium path (item 1)",
    "repro.core.segcache:SegmentCache.discard_staging": "end-of-medium path (item 1)",
    "repro.core.segcache:SegmentCache.surrender_line": "clean-segment famine branch",
    "repro.core.service:ServiceProcess._handle_dead_volume": "dead-volume path (item 1)",
    "repro.core.service:ServiceProcess._handle_end_of_medium": "end-of-medium path (item 1)",
    "repro.core.service:ServiceProcess._restage_and_retry": "end-of-medium path (item 1)",
    "repro.core.staging:StagingBuilder._append": "Migrator(migrate_inodes=)",
    "repro.core.staging:StagingBuilder.add_inode_block": "Migrator(migrate_inodes=)",
    "repro.core.staging:StagingBuilder.is_full": "Migrator(migrate_inodes=)",
    "repro.core.staging:StagingBuilder.room_for_inode_block": "Migrator(migrate_inodes=)",
    "repro.errors:DeviceError": "error rendering",
    "repro.ffs.allocator:CylinderGroupAllocator.free": "public FS verb (FFS unlink/truncate)",
    "repro.ffs.filesystem:FFS._destroy_inode": "public FS verb (unlink on FFS)",
    "repro.ffs.filesystem:FFS._truncate_blocks": "public FS verb (truncate on FFS)",
    "repro.footprint.robot:JukeboxFootprint.mark_full": "end-of-medium path (item 1)",
    "repro.footprint.robot:JukeboxFootprint.volume_info": "Footprint interface verb",
    "repro.frontend.backends:ClusterBackend.pump": "Client.pump on the cluster backend",
    "repro.frontend.backends:ClusterBackend.queued_writeouts": "max_queued drain, cluster backend",
    "repro.lfs.buffercache:BufferCache.invalidate": "bench_e2e/layers.py boundary",
    "repro.lfs.buffercache:BufferCache.invalidate_inode": "bench_e2e/layers.py boundary",
    "repro.lfs.buffercache:BufferCache.lru_order": "the LRU property test compares it",
    "repro.lfs.check:CheckReport": "fsck findings (a clean run has none)",
    "repro.lfs.cleaner:Cleaner.run": "the cleaner's run-to-target loop",
    "repro.lfs.cleaner:GreedyPolicy.rank": "the golden trace's cleaner",
    "repro.lfs.directory:Directory.is_empty": "public FS verb (rmdir)",
    "repro.lfs.directory:Directory.remove": "public FS verb (unlink/rmdir/rename)",
    "repro.lfs.filesystem:LFS._destroy_inode": "public FS verb (unlink on LFS)",
    "repro.lfs.filesystem:LFS._truncate_blocks": "public FS verb (truncate on LFS)",
    "repro.lfs.ifile:IFile.free_inum": "public FS verb (unlink on LFS)",
    "repro.lfs.ifile:IFile.grow": "on-line growth, paper §6.4 (DESIGN.md)",
    "repro.lfs.ufs:UFS": "public FS verbs (unlink, rmdir, rename, truncate)",
    "repro.obs.registry:MetricsRegistry.get": "obs read verb",
    "repro.obs.trace:TraceEvent.__eq__": "obs read verb (events compare)",
    "repro.obs.trace:TraceRecorder": "obs read verbs",
    "repro.persist.crashsim:CrashHarness._phase_repair": "crash-matrix phase (test tool)",
    "repro.persist.crashsim:CrashHarness.assert_acknowledged": "crash-matrix oracle (test tool)",
    "repro.sched.scheduler:TertiaryScheduler.submit_prefetch.<locals>.execute": "scheduled mode (5(b))",
    "repro.sim.actor:TimeAccount.breakdown": "Table 4 no-stray-category checks",
    "repro.sim.clock:VirtualClock.__repr__": "debugging repr (test_sim pins it)",
    "repro.util.bitmap:Bitmap.clear": "public FS verb (FFS unlink/truncate)",
}

HOOK = """\
import atexit, json, os, sys, threading
_seen = set()
def _call(frame, event, arg):
    co = frame.f_code
    _seen.add((co.co_filename, co.co_firstlineno, co.co_name))
sys.settrace(_call)
threading.settrace(_call)
@atexit.register
def _dump():
    sys.settrace(None)
    hits = {{(os.path.realpath(f), n, c) for f, n, c in _seen}}
    hits = sorted(h for h in hits if h[0].startswith({src!r} + os.sep))
    if hits:
        with open(os.path.join({out!r}, "%d.json" % os.getpid()), "w") as fh:
            json.dump(hits, fh)
"""


def covers(key, qual):
    return qual == key or qual.startswith((key + ":", key + "."))


def abstract(fn):
    body = fn.body[1:] if ast.get_docstring(fn) else fn.body
    return (any("abstractmethod" in ast.unparse(d) for d in fn.decorator_list)
            or not body or ast.unparse(body[0]) == "raise NotImplementedError")


def functions():
    """{(path, co_firstlineno, name): "module:Qual.name"} over src/repro."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(n.lineno for n in child.decorator_list + [child])
                if not abstract(child):
                    found[(str(path), first, child.name)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), path, module + ":")
    return found


def run_driver(cmd, work):
    """Run one driver under the hook; the src code objects it entered."""
    out, hook = (Path(tempfile.mkdtemp(dir=work)) for _ in range(2))
    (hook / "sitecustomize.py").write_text(
        HOOK.format(src=str(SRC), out=str(out)), encoding="utf-8")
    path = [str(hook), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               REPRO_OBS_DIR=str(Path(work) / "obs"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return proc, {tuple(h) for dump in out.glob("*.json")
                  for h in json.loads(dump.read_text())}


def main() -> int:
    problems, entered = [], set()
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        for cmd in DRIVERS:
            name = " ".join(cmd[1:])
            proc, hits = run_driver(cmd, work)
            print(f"  {len(hits):5d} src functions entered by {name}")
            if proc.returncode != 0:
                print(proc.stdout[-3000:])
                problems.append(f"driver exited {proc.returncode}: {name}")
            if not hits:
                problems.append(f"driver left no trace dump: {name}")
            entered |= hits
    defs = functions()
    missed = sorted({defs[k] for k in defs if k not in entered})
    print(f"{len(defs)} functions in src/repro, {len(missed)} entered by no driver:")
    for qual in missed:
        keys = [k for k in UNREACHED_OK if covers(k, qual)]
        print(f"  {qual}  -- {UNREACHED_OK[keys[0]] if keys else 'NOT LISTED'}")
        if not keys:
            problems.append(f"unreached and not in UNREACHED_OK: {qual}")
    for key in UNREACHED_OK:
        if not any(covers(key, qual) for qual in missed):
            problems.append(f"UNREACHED_OK entry covers nothing unreached "
                            f"(now reached, or gone): {key}")
    for problem in problems:
        print("reach: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
