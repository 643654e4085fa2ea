"""The in-core namespace caches (DESIGN.md, "Namespace cache").

Two contracts: a cached parse always equals ``Directory.parse`` of the
directory's current bytes, and a resolved path (``UFS._walks``) a fresh
component-by-component resolution, whatever mutated or failed in
between; and a warm directory or a replayed walk costs exactly what a
cold one does on the virtual clock, in the buffer cache and below it —
the caches save host work only.
"""

import random

import pytest

from repro import obs
from repro.bench import harness
from repro.blockdev import profiles
from repro.blockdev.base import CPUModel
from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          NoSpace)
from repro.ffs.filesystem import FFS
from repro.frontend import open_node
from repro.lfs.check import check_filesystem
from repro.lfs.constants import BLOCK_SIZE, ROOT_INUM
from repro.lfs.directory import Directory
from repro.lfs.filesystem import LFS, LFSConfig
from repro.sim.actor import Actor
from repro.util.units import KB, MB
from tests.conftest import HLBed


def resolve(fs, path):
    """``(inum, keys)`` of ``path`` resolved one component at a time from
    the directories' current bytes, or None where a name does not
    resolve; ``keys`` is every directory block on the way, in order."""
    inum, keys = ROOT_INUM, []
    for part in [p for p in path.split("/") if p]:
        ino = fs.get_inode(inum)
        if not ino.is_dir():
            return None
        raw = fs.read(inum, 0, ino.size, update_atime=False)
        keys += [(inum, lbn) for lbn in range(-(-ino.size // BLOCK_SIZE))]
        inum = Directory.parse(raw).entries.get(part)
        if inum is None:
            return None
    return inum, tuple(keys)


def assert_coherent(fs):
    """Every cached directory has an in-core inode and equals the parse
    of that directory's current bytes; every resolved path equals a
    fresh resolution and walks only such directories.  Returns the
    number of resolved paths checked."""
    for inum, cached in list(fs._dirs.items()):
        ino = fs._inodes[inum]
        raw = fs.read(inum, 0, ino.size, update_atime=False)
        assert cached.entries == Directory.parse(raw).entries, inum
    walks = dict(fs._walks)
    for path, (inum, keys, dirs) in walks.items():
        assert resolve(fs, path) == (inum, keys), path
        assert keys == tuple((d, lbn) for d, n in dirs for lbn in range(n))
        for d, _ in dirs:
            assert d in fs._dirs and d in fs._inodes, (path, d)
    return len(walks)


@pytest.fixture
def parses(monkeypatch):
    """Counts ``Directory.parse`` calls."""
    calls = []
    real = Directory.parse.__func__

    def counting(cls, data):
        calls.append(len(data))
        return real(cls, data)

    monkeypatch.setattr(Directory, "parse", classmethod(counting))
    return calls


# -- (a) coherence under a random namespace workload ----------------------------

class Model:
    """The namespace the filesystem should hold: directories and files."""

    def __init__(self, rng):
        self.rng = rng
        self.dirs = {"/"}
        self.files = {}

    def child(self, parent, name):
        return parent.rstrip("/") + "/" + name

    def fresh_name(self):
        # Long names make a directory span (and shrink across) blocks.
        return "n%04d" % self.rng.randrange(10_000) \
            + "x" * self.rng.choice((0, 0, 90, 180))

    def is_empty(self, d):
        prefix = d.rstrip("/") + "/"
        return not any(p != d and p.startswith(prefix)
                       for p in list(self.dirs) + list(self.files))


#: Both layouts share the caches and their invalidation points
#: (``_destroy_inode``, ``_truncate_blocks``, ``drop_caches``).
LAYOUT_SEEDS = [pytest.param(layout, seed, id=prefix + str(seed))
                for layout, prefix in ((LFS, ""), (FFS, "ffs-"))
                for seed in (1993, 7, 42)]


@pytest.mark.parametrize("layout, seed", LAYOUT_SEEDS)
def test_cache_equals_bytes_under_random_namespace_ops(layout, seed):
    rng = random.Random(seed)
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)
    app = Actor("app")
    fs = layout.mkfs(disk, actor=app)
    m = Model(rng)

    def step_create():
        path = m.child(rng.choice(sorted(m.dirs)), m.fresh_name())
        if path in m.files or path in m.dirs:
            with pytest.raises(FileExists):
                fs.create(path)
            return
        data = rng.randbytes(rng.choice((0, 10, 5000)))
        fs.write_path(path, data)
        m.files[path] = data

    def step_mkdir():
        path = m.child(rng.choice(sorted(m.dirs)), m.fresh_name())
        if path in m.files or path in m.dirs:
            return
        fs.mkdir(path)
        m.dirs.add(path)

    def step_unlink():
        if m.files:
            path = rng.choice(sorted(m.files))
            fs.unlink(path)
            del m.files[path]

    def step_rmdir():
        victims = sorted(m.dirs - {"/"})
        if not victims:
            return
        path = rng.choice(victims)
        if m.is_empty(path):
            fs.rmdir(path)
            m.dirs.remove(path)
        else:
            with pytest.raises(DirectoryNotEmpty):
                fs.rmdir(path)

    def step_rename():
        if not m.files:
            return
        old = rng.choice(sorted(m.files))
        parent = old.rsplit("/", 1)[0] or "/"
        target_dir = parent if rng.random() < 0.5 \
            else rng.choice(sorted(m.dirs))
        new = m.child(target_dir, m.fresh_name())
        if new in m.files or new in m.dirs:
            return
        fs.rename(old, new)
        m.files[new] = m.files.pop(old)

    def step_lookup():
        if m.files and rng.random() < 0.7:
            path = rng.choice(sorted(m.files))
            assert fs.read_path(path) == m.files[path]
        else:
            with pytest.raises(FileNotFound):
                fs.lookup(m.child(rng.choice(sorted(m.dirs)), "absent"))

    def step_drop():
        fs.drop_caches(drop_inodes=rng.random() < 0.5)

    def step_remount():
        nonlocal fs
        fs.checkpoint()
        fs = LFS.mount(disk, actor=app)

    def step_crash():
        nonlocal fs
        fs.sync()                         # in the log, not checkpointed
        fs = LFS.mount(disk, actor=app)   # roll-forward rebuilds it

    steps = [step_create] * 5 + [step_mkdir] * 3 + [step_unlink] * 2 + \
        [step_rmdir, step_rename, step_rename, step_lookup, step_lookup,
         step_drop]
    if layout is LFS:  # only the log remounts, rolls forward and fscks
        steps += [step_remount, step_crash]
    walks_checked = 0
    for _ in range(120):
        rng.choice(steps)()
        walks_checked += assert_coherent(fs)
        if layout is LFS:
            report = check_filesystem(fs, oracle=dict(m.files))
            assert report.ok, report.errors
        for d in sorted(m.dirs):
            want = sorted(p.rsplit("/", 1)[1]
                          for p in list(m.dirs) + list(m.files)
                          if p != "/" and (p.rsplit("/", 1)[0] or "/") == d)
            assert fs.readdir(d) == want
    assert fs._dirs, "the walk never populated the cache"
    assert walks_checked > 100, "hardly a resolved path outlived a step"


# -- (b) exact accounting: the cache saves host work only -----------------------

def observe(fs, app, fn):
    """Everything a directory walk may move, as one comparable record."""
    t0, hits, misses = app.time, fs.bcache.hits, fs.bcache.misses
    reads, fetches = fs.stats.reads, fs.stats.demand_fetches
    before = obs.metrics().snapshot()["counters"]
    emitted = obs.trace().emitted
    result = fn()
    after = obs.metrics().snapshot()["counters"]
    new_events = obs.trace().emitted - emitted
    return {
        "result": result,
        "virt_s": app.time - t0,
        "hits": fs.bcache.hits - hits,
        "misses": fs.bcache.misses - misses,
        "reads": fs.stats.reads - reads,
        "demand_fetches": fs.stats.demand_fetches - fetches,
        "counters": {k: v - before.get(k, 0.0) for k, v in after.items()
                     if v != before.get(k, 0.0)},
        "lru": fs.bcache.lru_order(),
        "readahead": dict(fs._last_read_lbn),
        "events": obs.trace().to_list()[-new_events:] if new_events else [],
    }


def deep_tree(cpu=None):
    """A depth-3 tree whose ``/a/b`` spans two blocks, on a fresh disk."""
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)
    app = Actor("app")
    fs = LFS.mkfs(disk, LFSConfig(), cpu=cpu, actor=app)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.mkdir("/a/b/c")
    for i in range(40):
        fs.write_path("/a/b/" + "f%02d" % i + "y" * 150, b"x")
    fs.write_path("/a/b/c/leaf", b"leaf")
    fs.checkpoint()
    assert fs.get_inode(fs.lookup("/a/b")).size > 4 * KB
    return fs, app


def test_warm_lookup_charges_exactly_what_the_cold_parse_did(parses):
    fs, app = deep_tree()
    fs.lookup("/a/b/c/leaf")          # buffer cache warm from here on
    fs._forget_names()
    del parses[:]
    cold = observe(fs, app, lambda: fs.lookup("/a/b/c/leaf"))
    assert len(parses) == 4           # /, /a, /a/b, /a/b/c
    warm = observe(fs, app, lambda: fs.lookup("/a/b/c/leaf"))
    assert len(parses) == 4           # ... and not once more
    assert warm == cold
    assert cold["hits"] == 5 and cold["misses"] == 0 and cold["reads"] == 4
    assert cold["counters"] == {"buffercache_hits_total": 5.0}
    assert cold["virt_s"] == pytest.approx(5 * fs.cpu.per_block_op)


def test_warm_lookup_after_buffer_drop_reads_the_same_disk_blocks(parses):
    """Cold buffer cache under a warm parse: the walk still misses,
    bmaps and reads the device, to the same virtual instant."""
    records = []
    for keep_parses in (True, False):
        fs, app = deep_tree()
        fs.lookup("/a/b/c/leaf")
        fs.drop_caches()              # buffers only: inodes and parses stay
        if not keep_parses:
            fs._forget_names()
        del parses[:]
        records.append(observe(fs, app, lambda: fs.lookup("/a/b/c/leaf")))
        assert len(parses) == (0 if keep_parses else 4)
    warm, cold = records
    assert warm == cold
    assert cold["misses"] >= 4 and cold["virt_s"] > 5 * 0.0008


def test_read_hot_constant_14_block_operations_per_op(parses):
    """bench_e2e's ``read_hot`` in small: open + 4 KB straddling read +
    close of an 8 KB file three directories deep is 3 lookups x 4
    directory blocks + 2 data blocks, each one CPU block operation."""
    bed = harness.make_highlight()
    client, app, fs = open_node(bed), bed.app, bed.fs
    fs.mkdir("/proj")
    paths = []
    for run in range(4):
        fs.mkdir(f"/proj/run{run:02d}")
        fs.mkdir(f"/proj/run{run:02d}/out")
        for i in range(16):
            paths.append(f"/proj/run{run:02d}/out/f{i:02d}.dat")
            fs.write_path(paths[-1], bytes([run, i]) * (4 * KB))
    client.flush(app)

    def op(path):
        handle = client.open(app, path)
        data = client.read(app, handle, 512, 4 * KB)
        client.close(app, handle)
        return data

    for path in paths:
        op(path)                      # warm-up: every directory parsed
    del parses[:]
    hits = fs.bcache.hits
    rng = random.Random(1993)
    for _ in range(500):
        path = rng.choice(paths)
        t0 = app.time
        data = op(path)
        assert app.time - t0 == pytest.approx(14 * fs.cpu.per_block_op,
                                              abs=1e-9)
        assert len(data) == 4 * KB and data[0] == int(path[9:11])
    assert 14 * fs.cpu.per_block_op == pytest.approx(0.0112)
    assert fs.bcache.hits - hits == 500 * 14
    assert parses == []


# -- (b2) a replayed walk re-applies exactly what the loop would have charged ------

LEAF = "/a/b/c/leaf"                  # 5 directory blocks: /, /a, /a/b x2, /a/b/c


@pytest.fixture
def walked(monkeypatch):
    """The ``(inum, lbn)`` of every block ``LFS._read_blocks`` reads: a
    replayed lookup reads none."""
    calls = []
    real = LFS._read_blocks

    def counting(self, ino, lbn, end, actor):
        calls.extend((ino.inum, n) for n in range(lbn, end))
        return real(self, ino, lbn, end, actor)

    monkeypatch.setattr(LFS, "_read_blocks", counting)
    return calls


def both_ways(walked, prepare=lambda fs, app: None, cpu=None, repeat=1):
    """``repeat`` lookups of LEAF on two identical trees in the same state
    (resolved once, then ``prepare``): as ``lookup`` does them, replaying
    where it can, and with no resolved path to replay, so by the
    component loop alone.  Returns each side's record and the number of
    blocks it walked one by one."""
    sides = []
    for loop_only in (False, True):
        fs, app = deep_tree(cpu)
        fs.lookup(LEAF)
        prepare(fs, app)

        def lookups():
            for _ in range(repeat):
                if loop_only:
                    fs._walks.clear()
                inum = fs.lookup(LEAF, app)
            return inum

        del walked[:]
        record = observe(fs, app, lookups)
        record["dirty"] = [b.key for b in fs.bcache.dirty_buffers()]
        record["clean_queue"] = list(fs.bcache._clean)
        record["app_time"] = app.time
        sides.append((record, len(walked)))
    return sides


def buffers_dropped_then_walked_once(fs, app):
    """Read-ahead state one walk old (not yet saturated), buffers warm."""
    fs.drop_caches()
    fs.lookup(LEAF)


def test_replayed_lookup_equals_the_loop(walked):
    (replay, n_replay), (loop, n_loop) = both_ways(
        walked, buffers_dropped_then_walked_once)
    assert (n_replay, n_loop) == (0, 5)
    assert replay == loop
    assert replay["hits"] == 5 and replay["misses"] == 0
    assert replay["reads"] == 4 and replay["events"] == []
    assert replay["counters"] == {"buffercache_hits_total": 5.0}
    assert replay["virt_s"] == pytest.approx(5 * 0.0008)
    # Each directory's read-ahead ramp doubled once per block walked.
    assert sorted(replay["readahead"].values()) == \
        [(0, 8), (0, 8), (0, 8), (1, 16)]


def test_replays_add_block_charges_one_by_one(walked):
    """``n`` sleeps of ``x`` are not one sleep of ``n * x`` on a float
    clock: 300 replays end on the very instant 300 loop walks do."""
    (replay, n_replay), (loop, n_loop) = both_ways(walked, repeat=300)
    assert (n_replay, n_loop) == (0, 1500)
    assert replay["app_time"] == loop["app_time"]
    assert replay == loop


def test_replay_charges_the_calling_actor(walked):
    turns = "abbaabab"
    clocks = []
    for loop_only in (False, True):
        fs, app = deep_tree()
        actors = {"a": app, "b": Actor("other")}
        fs.lookup(LEAF)
        del walked[:]
        seen = []
        for turn in turns:
            if loop_only:
                fs._walks.clear()
            before = {name: actor.time for name, actor in actors.items()}
            fs.lookup(LEAF, actors[turn])
            idle = actors["b" if turn == "a" else "a"]
            assert idle.time == before["b" if turn == "a" else "a"]
            assert actors[turn].time > before[turn]
            seen.append((actors["a"].time, actors["b"].time))
        assert len(walked) == (5 * len(turns) if loop_only else 0)
        clocks.append(seen)
    assert clocks[0] == clocks[1]


def one_block_gone(fs, app):
    """The second block of ``/a/b`` leaves the cache; the three blocks
    the walk reads before it stay."""
    b_inum = fs.lookup("/a/b")
    fs.lookup(LEAF)
    fs.bcache.invalidate((b_inum, 1))


def evicted_by_other_reads(fs, app):
    """Real evictions: a file larger than the cache is read through it."""
    fs.write_path("/big", bytes(4 * MB))
    fs.lookup(LEAF)                   # resolved again after the create
    fs.sync()
    fs.read_path("/big")
    assert fs.bcache.peek((ROOT_INUM, 0)) is None


@pytest.mark.parametrize("prepare", [
    one_block_gone, evicted_by_other_reads,
    lambda fs, app: fs.drop_caches(),
    lambda fs, app: fs.drop_caches(drop_inodes=True),
], ids=["one_block_gone", "evicted", "drop_caches", "inodes_dropped"])
def test_replay_declines_and_the_loop_runs_untouched(walked, prepare):
    """A directory block that is not buffered: ``hit_all`` touches and
    counts nothing, and the loop misses, bmaps and reads the device as
    it always did — to the same record, hit for hit."""
    (declined, n_declined), (loop, n_loop) = both_ways(walked, prepare)
    assert (n_declined, n_loop) == (5, 5)
    assert declined == loop
    assert declined["misses"] >= 1 and declined["virt_s"] > 5 * 0.0008
    assert declined["hits"] + declined["misses"] >= 5


def test_replay_over_a_dirty_directory_block(walked):
    """A just-written, unflushed directory block is pinned, not queued
    for eviction: a replay stamps it most recent and queues nothing."""
    def prepare(fs, app):
        fs.create("/a/b/c/new")       # /a/b/c rewritten, not flushed
        fs.lookup(LEAF)

    (replay, n_replay), (loop, n_loop) = both_ways(walked, prepare)
    assert (n_replay, n_loop) == (0, 5)
    assert replay == loop
    c_block = replay["lru"][-1]
    assert c_block in replay["dirty"]
    assert c_block not in replay["clean_queue"]
    assert replay["clean_queue"][-4:] == replay["lru"][-5:-1]


def test_replay_on_a_free_cpu_charges_nothing(walked):
    (replay, n_replay), (loop, n_loop) = both_ways(
        walked, cpu=CPUModel(copy_rate=float("inf"), per_block_op=0.0),
        repeat=3)
    assert (n_replay, n_loop) == (0, 15)
    assert replay == loop
    assert replay["virt_s"] == 0.0 and replay["hits"] == 15


def test_mutations_revoke_resolved_paths(lfs):
    fs = lfs
    fs.mkdir("/d")
    fs.mkdir("/d/sub")
    fs.write_path("/d/f", b"f")
    for _ in range(2):                # a failed lookup is never remembered
        with pytest.raises(FileNotFound):
            fs.lookup("/d/new")
    assert "/d/new" not in fs._walks
    new = fs.create("/d/new")
    assert fs.lookup("/d/new") == new and "/d/new" in fs._walks

    f = fs.lookup("/d/f")
    fs.rename("/d/f", "/d/sub/g")
    assert fs.lookup("/d/sub/g") == f
    with pytest.raises(FileNotFound):
        fs.lookup("/d/f")

    fs.unlink("/d/sub/g")
    with pytest.raises(FileNotFound):
        fs.lookup("/d/sub/g")
    assert fs.lookup("/d/sub") and fs.lookup("/d/sub/.") == fs.lookup("/d/sub")
    fs.rmdir("/d/sub")
    for gone in ("/d/sub", "/d/sub/."):
        with pytest.raises(FileNotFound):
            fs.lookup(gone)

    # A create leaves every other name in place but may grow the
    # directory by a block: the walk of a sibling is a block longer.
    d = fs.lookup("/d")
    assert fs.lookup("/d/new") == new
    assert fs._walks["/d/new"][2] == ((ROOT_INUM, 1), (d, 1))
    for i in range(30):
        fs.create("/d/" + "n%02d" % i + "z" * 150)
    assert fs.get_inode(d).size > BLOCK_SIZE
    assert fs.lookup("/d/new") == new
    assert fs._walks["/d/new"][2] == ((ROOT_INUM, 1), (d, 2))
    assert_coherent(fs)

    # Resizing a directory by hand changes the blocks a walk reads.
    fs.truncate("/d", 3 * BLOCK_SIZE)
    assert d not in fs._dirs and not fs._walks
    assert fs.lookup("/d/new") == new
    assert fs._walks["/d/new"][2] == ((ROOT_INUM, 1), (d, 3))
    assert_coherent(fs)


# -- (c) a migrated directory still demand-fetches under a warm parse ------------

def test_migrated_directory_demand_fetches_on_warm_parse(parses):
    records = []
    for keep_parses in (True, False):
        obs.reset()
        bed = HLBed()
        fs, app = bed.fs, bed.app
        fs.mkdir("/dir")
        for i in range(30):
            fs.write_path(f"/dir/f{i}", b"x")
        fs.checkpoint()
        dir_inum = fs.lookup("/dir")
        bed.migrator.migrate_file(dir_inum)
        bed.migrator.flush()
        assert fs.aspace.is_tertiary_segno(fs.aspace.segno_of(
            fs.bmap(fs.get_inode(dir_inum), 0)))
        fs.service.flush_cache(app)   # eject the cache lines ...
        fs.drop_caches()              # ... and the buffers; parses stay
        assert dir_inum in fs._dirs
        if not keep_parses:
            fs._forget_names()
        del parses[:]
        records.append(observe(fs, app, lambda: fs.lookup("/dir/f7")))
        assert len(parses) == (0 if keep_parses else 2)
    warm, cold = records
    assert warm == cold
    assert warm["demand_fetches"] == 1
    assert [e["type"] for e in warm["events"]].count(
        obs.EV_SEGMENT_FETCH) == 1


def test_resolved_path_through_a_migrated_directory_still_demand_fetches(
        walked):
    """As above with ``/dir/f7`` resolved beforehand: the replay finds
    the ejected directory's block unbuffered, declines, and the loop
    fetches the segment back — once, as if nothing had been resolved."""
    records = []
    for keep_walk in (True, False):
        obs.reset()
        bed = HLBed()
        fs, app = bed.fs, bed.app
        fs.mkdir("/dir")
        for i in range(30):
            fs.write_path(f"/dir/f{i}", b"x")
        fs.checkpoint()
        bed.migrator.migrate_file(fs.lookup("/dir"))
        bed.migrator.flush()
        fs.lookup("/dir/f7")
        fs.service.flush_cache(app)
        fs.drop_caches()
        assert "/dir/f7" in fs._walks
        if not keep_walk:
            fs._forget_names()
        del walked[:]
        records.append(observe(fs, app, lambda: fs.lookup("/dir/f7")))
        assert len(walked) == 2
    kept, forgotten = records
    assert kept == forgotten
    assert kept["demand_fetches"] == 1 and kept["misses"] >= 1


# -- (d) a failed directory write leaves no parse that differs from the log ------

MUTATORS = {
    "create": lambda fs: fs.create("/d/new"),
    "mkdir": lambda fs: fs.mkdir("/d/newdir"),
    "unlink": lambda fs: fs.unlink("/d/f0"),
    "rmdir": lambda fs: fs.rmdir("/d/sub"),
    "rename_in": lambda fs: fs.rename("/e/g0", "/d/moved"),
    "rename_out": lambda fs: fs.rename("/d/f0", "/e/moved"),
    "rename_within": lambda fs: fs.rename("/d/f0", "/d/f0renamed"),
}


@pytest.mark.parametrize("bytes_written", [False, True])
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_failed_directory_write_cannot_poison_the_cache(
        lfs, monkeypatch, mutator, bytes_written):
    """``NoSpace`` out of ``_write_dir`` of ``/d``, raised before any
    byte changed or (a flush failing) after the new bytes are buffered:
    either way later lookups answer from the bytes, never from the parse
    the failed operation had already mutated."""
    lfs.mkdir("/d")
    lfs.mkdir("/d/sub")
    lfs.mkdir("/e")
    lfs.write_path("/d/f0", b"0")
    lfs.write_path("/e/g0", b"1")
    d_inum = lfs.lookup("/d")
    before = dict(lfs._dirs[d_inum].entries)
    real_write = LFS.write

    def failing_write(self, inum, offset, data, actor=None):
        if inum != d_inum:
            return real_write(self, inum, offset, data, actor)
        if bytes_written:
            real_write(self, inum, offset, data, actor)
        raise NoSpace("injected")

    monkeypatch.setattr(LFS, "write", failing_write)
    with pytest.raises(NoSpace):
        MUTATORS[mutator](lfs)
    monkeypatch.undo()

    assert d_inum not in lfs._dirs    # dropped, not left mutated
    assert_coherent(lfs)
    ino = lfs.get_inode(d_inum)
    on_log = Directory.parse(
        lfs.read(d_inum, 0, ino.size, update_atime=False)).entries
    if not bytes_written:
        assert on_log == before
    for name in set(before) | set(on_log) | {"new", "newdir", "moved",
                                             "f0renamed"}:
        if name in on_log:
            assert lfs.lookup(f"/d/{name}") == on_log[name]
        else:
            with pytest.raises(FileNotFound):
                lfs.lookup(f"/d/{name}")
    assert lfs._dirs[d_inum].entries == on_log
