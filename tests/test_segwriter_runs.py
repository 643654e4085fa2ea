"""The segment writer's run path against its per-block reference.

``tests/segwriter_model.py`` keeps the writer and ``lfs_bmapv`` as they
were, one block at a time.  Each test below builds two filesystems — the
shipped one and the reference — and drives both through the same seeded
operations.  After every operation the two must agree on every device
byte and summary, every bmap, every segment's ``live_bytes``, the buffer
cache's contents, hit/miss/eviction counts and ``lru_order()``, and the
actor's virtual time (DESIGN.md "Segment writer runs").

The operations reach direct, single- and double-indirect blocks; hole
pointer blocks materialised mid-flush; runs that cross a pointer block;
partials split at the 512-byte summary limit and at a segment seal;
directory runs (``SS_DIROP``); old copies in the current log segment
under the ``live_bytes`` clamp; and pointer blocks evicted before the
flush that must be read back in the middle of it.
"""

from __future__ import annotations

import hashlib
import random
import struct

from repro import obs
from repro.blockdev import profiles
from repro.core.stack import make_highlight
from repro.errors import ReproError
from repro.lfs.check import check_filesystem
from repro.lfs.cleaner import Cleaner, GreedyPolicy, partials
from repro.lfs.constants import (BLOCK_SIZE, DOUBLE_ROOT_LBN, NDADDR,
                                 PTRS_PER_BLOCK, SINGLE_ROOT_LBN, UNASSIGNED,
                                 double_child_lbn)
from repro.lfs.filesystem import LFS, LFSConfig
from repro.lfs.ifile import SEG_CLEAN
from repro.lfs.summary import SS_DIROP
from repro.sim.actor import Actor
from repro.util.units import KB, MB
from tests.segwriter_model import PerBlockLFS

#: First lbn under the double-indirect root, and a child boundary.
DOUBLE = NDADDR + PTRS_PER_BLOCK
CHILD_EDGE = DOUBLE + PTRS_PER_BLOCK

#: Where writes land: (first lbn, last lbn) windows that straddle every
#: pointer-block boundary, plus plain stretches of each region.
WINDOWS = [(0, NDADDR), (NDADDR - 6, NDADDR + 10), (NDADDR + 40, NDADDR + 200),
           (DOUBLE - 12, DOUBLE + 12), (CHILD_EDGE - 20, CHILD_EDGE + 20),
           (DOUBLE + 3 * PTRS_PER_BLOCK, DOUBLE + 3 * PTRS_PER_BLOCK + 30)]

#: (seed, buffer-cache bytes) of the random scripts: caches from the
#: 8-block floor, where a flush's own reads evict, to 1 MB.
SCRIPTS = [(1, 32 * KB), (2, 128 * KB), (3, 1 * MB), (4, 64 * KB)]

_COUNTERS = ("buffercache_hits_total", "buffercache_misses_total",
             "buffercache_evictions_total")


def _counts():
    return tuple(obs.counter(name).labels().value for name in _COUNTERS)


# -- what both sides must agree on ------------------------------------------------


def _pointer_block(fs, inum, plbn, daddr):
    """A pointer block's bytes as the filesystem sees them, charge-free."""
    data = fs.bcache.peek((inum, plbn))
    if data is not None:
        return data
    if daddr == UNASSIGNED:
        return b"\xff" * BLOCK_SIZE
    return fs.device.store.read(daddr, 1)


def _ptrs(block):
    return struct.unpack(f"<{PTRS_PER_BLOCK}I", block)


def _bmaps(fs, ino):
    """Every pointer of the file, resolved without touching anything."""
    root = _ptrs(_pointer_block(fs, ino.inum, DOUBLE_ROOT_LBN, ino.ib[1]))
    out = [ino.db, ino.ib, root,
           _ptrs(_pointer_block(fs, ino.inum, SINGLE_ROOT_LBN, ino.ib[0]))]
    for j, child in enumerate(root):
        if child != UNASSIGNED or fs.bcache.peek(
                (ino.inum, double_child_lbn(j))) is not None:
            out.append((j, _ptrs(_pointer_block(
                fs, ino.inum, double_child_lbn(j), child))))
    return out


class _Segment:
    """One segment's blocks, read from the store as ``partials`` asks."""

    def __init__(self, fs, segno):
        self.store, self.base = fs.device.store, fs.seg_base(segno)

    def __getitem__(self, offset):
        return self.store.read(self.base + offset, 1)


def _catalogues(fs):
    """``(segno, offset, summary)`` of every partial in the log."""
    return [(segno, offset, summary)
            for segno, seg in enumerate(fs.ifile.segs)
            if not seg.flags & SEG_CLEAN
            for offset, summary in partials(fs, segno, _Segment(fs, segno))]


def _device(store):
    digest = hashlib.sha1()
    for start, nblocks, buf, off in store.snapshot():
        digest.update(struct.pack("<II", start, nblocks))
        digest.update(memoryview(buf)[off:off + nblocks * BLOCK_SIZE])
    return digest.digest()


def observe(fs):
    """Everything a caller or a virtual-time number can see."""
    cache = fs.bcache
    order = cache.lru_order()
    return {
        "time": fs.actor.time,
        "stats": vars(fs.stats).copy(),
        "log": (fs.cur_segno, fs.cur_offset),
        "segs": [(s.live_bytes, s.flags, s.lastmod) for s in fs.ifile.segs],
        "imap": {i: (e.daddr, e.version) for i, e in fs.ifile.imap.items()},
        "inodes": {i: (ino.size, ino.blocks, _bmaps(fs, ino))
                   for i, ino in sorted(fs._inodes.items())},
        "cache": (cache.hits, cache.misses, order,
                  sorted(b.key for b in cache.dirty_buffers()),
                  [cache.peek(key) for key in order]),
        "device": _device(fs.device.store),
        "summaries": [(segno, offset, s.flags, s.next_daddr, s.finfos,
                       s.inode_daddrs)
                      for segno, offset, s in _catalogues(fs)],
    }


class Twins:
    """The shipped filesystem and the per-block reference, in lock step."""

    def __init__(self, bcache_bytes, disk_bytes=24 * MB):
        for name in _COUNTERS:  # into this epoch, so deltas start at 0
            obs.counter(name).labels().inc(0)
        self.sides = [
            cls.mkfs(profiles.make_disk(profiles.RZ57,
                                        capacity_bytes=disk_bytes),
                     LFSConfig(bcache_bytes=bcache_bytes), actor=Actor(name))
            for cls, name in ((LFS, "runs"), (PerBlockLFS, "blocks"))]
        self.steps = 0

    @property
    def fs(self):
        """The shipped side, for read-only looks between steps."""
        return self.sides[0]

    def do(self, what, op):
        """Apply ``op(fs)`` to both sides; they must stay equal."""
        results, counts = [], []
        for fs in self.sides:
            before = _counts()
            try:
                results.append(("ok", op(fs)))
            except ReproError as exc:
                results.append(("raised", repr(exc)))
            counts.append(tuple(b - a for a, b in zip(before, _counts())))
        self.steps += 1
        where = f"step {self.steps} ({what})"
        assert results[0] == results[1], where
        assert counts[0] == counts[1], where
        runs, blocks = (observe(fs) for fs in self.sides)
        for key in runs:
            assert runs[key] == blocks[key], f"{where}: {key} differs"
        return results[0][1]


# -- operations ---------------------------------------------------------------------


def _write(twins, rng, inum):
    lo, hi = rng.choice(WINDOWS)
    lbn = rng.randrange(lo, hi)
    nblocks = rng.randint(1, 48)
    skew = rng.choice((0, 0, 0, rng.randrange(1, BLOCK_SIZE)))
    data = rng.randbytes(nblocks * BLOCK_SIZE - rng.choice((0, skew)))
    twins.do(f"write {inum} @{lbn}+{nblocks}",
             lambda fs: fs.write(inum, lbn * BLOCK_SIZE + skew, data))


def _bmapv_probe(twins, rng, segno=None):
    """``lfs_bmapv`` over a written segment's catalogue as the cleaner
    asks it, with inode items, in order or shuffled."""
    fs = twins.fs
    if segno is None:
        segno = rng.choice([s for s, seg in enumerate(fs.ifile.segs)
                            if not seg.flags & SEG_CLEAN])
    items = []
    for offset, summary in partials(fs, segno, _Segment(fs, segno)):
        items += [(fi.ino, lbn, daddr) for fi, lbn, daddr
                  in summary.entries(fs.seg_base(segno) + offset)]
        items += [(inum, None, daddr) for daddr in summary.inode_daddrs
                  for inum in sorted(fs._inodes)[:3]]
    if rng.random() < 0.5:
        rng.shuffle(items)
    twins.do(f"lfs_bmapv seg {segno}", lambda fs: fs.lfs_bmapv(items))


def _zero_current_live(fs):
    """Accounting drift in the current log segment, so later overwrites
    of blocks in it meet the clamp at 0."""
    fs.seguse_for(fs.cur_segno).live_bytes = 0


def run_script(seed, steps, bcache_bytes):
    rng = random.Random(seed)
    twins = Twins(bcache_bytes)
    twins.do("mkdir", lambda fs: fs.mkdir("/d"))
    files = {}
    for path in ("/f0", "/f1", "/d/g0"):
        files[path] = twins.do(f"create {path}",
                               lambda fs, path=path: fs.create(path))
    for _ in range(steps):
        roll = rng.random()
        path = rng.choice(sorted(files))
        if roll < 0.45:
            _write(twins, rng, files[path])
        elif roll < 0.52:
            new = rng.choice(("/d/g", "/f")) + str(rng.randrange(1000))
            if new not in files:
                files[new] = twins.do(f"create {new}",
                                      lambda fs: fs.create(new))
        elif roll < 0.60:
            twins.do("sync", lambda fs: fs.sync())
        elif roll < 0.66:
            twins.do("drop_caches", lambda fs: fs.drop_caches())
        elif roll < 0.72:
            off, n = rng.randrange(0, 64 * KB), rng.randrange(1, 96 * KB)
            twins.do(f"read {path}", lambda fs: fs.read_path(path, off, n))
        elif roll < 0.76:
            size = rng.randrange(0, 2 * DOUBLE * BLOCK_SIZE)
            twins.do(f"truncate {path}", lambda fs: fs.truncate(path, size))
        elif roll < 0.82:
            twins.do("clean", lambda fs: Cleaner(
                fs, GreedyPolicy(), max_per_pass=2).clean_pass())
        elif roll < 0.88:
            _bmapv_probe(twins, rng)
        elif roll < 0.92:
            twins.do("zero live", _zero_current_live)
        elif roll < 0.95 and len(files) > 2:
            del files[path]
            twins.do(f"unlink {path}", lambda fs: fs.unlink(path))
        else:
            twins.do("checkpoint", lambda fs: fs.checkpoint())
    twins.do("checkpoint", lambda fs: fs.checkpoint())
    return twins


# -- the tests ------------------------------------------------------------------------


def test_run_path_equals_per_block_path():
    lbns, dirops = set(), 0
    for seed, bcache_bytes in SCRIPTS:
        twins = run_script(seed, 45, bcache_bytes)
        for fs in twins.sides:
            assert check_filesystem(fs).ok, f"seed {seed}"
        for _segno, _off, summary in _catalogues(twins.fs):
            lbns.update(lbn for fi in summary.finfos for lbn in fi.blocks)
            dirops += bool(summary.flags & SS_DIROP)
    # The scripts reach what they are meant to.
    assert any(lbn >= CHILD_EDGE for lbn in lbns)
    assert any(lbn < DOUBLE_ROOT_LBN for lbn in lbns)   # a double child
    assert any(SINGLE_ROOT_LBN == lbn for lbn in lbns) and dirops


def _twins_with_file(bcache_bytes, nblocks, first_lbn=0):
    """Twins holding one file ``/f`` of ``nblocks`` dirty blocks from
    ``first_lbn`` on; returns them and its inode number."""
    twins = Twins(bcache_bytes)
    inum = twins.do("create", lambda fs: fs.create("/f"))
    data = random.Random(7).randbytes(nblocks * BLOCK_SIZE)
    twins.do("write", lambda fs: fs.write(inum, first_lbn * BLOCK_SIZE,
                                          data))
    return twins, inum


def test_summary_limit_and_seal_split_a_run():
    """A 300-block run overflows a 512-byte summary (119 blocks) twice
    and the 1 MB segment once; both sides split at the same blocks."""
    twins, _inum = _twins_with_file(4 * MB, 300)
    twins.do("sync", lambda fs: fs.sync())
    sizes = [summary.ndata_blocks() for *_, summary in _catalogues(twins.fs)]
    assert max(sizes) <= 119 and sum(sizes) >= 300
    assert twins.fs.stats.segments_written == 1


def test_hole_pointer_blocks_materialise_mid_flush():
    """Blocks written past a hole: the flush's first block of each run
    materialises the double root and its child, the rest only touch."""
    twins, inum = _twins_with_file(4 * MB, 40, first_lbn=CHILD_EDGE - 20)
    fs = twins.fs
    assert fs.bcache.peek((inum, DOUBLE_ROOT_LBN)) is None
    twins.do("sync", lambda fs: fs.sync())
    assert fs.get_inode(inum).ib[1] != UNASSIGNED


def test_old_copies_in_the_current_segment_meet_the_clamp():
    twins, inum = _twins_with_file(4 * MB, 30, first_lbn=5)
    twins.do("sync", lambda fs: fs.sync())
    twins.do("zero live", _zero_current_live)
    data = bytes(range(256)) * (20 * BLOCK_SIZE // 256)
    twins.do("overwrite", lambda fs: fs.write(inum, 8 * BLOCK_SIZE, data))
    twins.do("sync", lambda fs: fs.sync())


def test_evicted_pointer_block_is_read_back_mid_flush():
    """The single-indirect block is clean and evicted while its data
    blocks are dirty: the flush reads it from the device first."""
    twins, inum = _twins_with_file(128 * KB, 20, first_lbn=NDADDR)
    twins.do("sync", lambda fs: fs.sync())
    twins.do("drop", lambda fs: fs.bcache.drop_clean())
    data = random.Random(3).randbytes(16 * BLOCK_SIZE)

    def overwrite(fs):
        for i in range(16):   # full blocks, one buffer each, no bmap
            fs.bcache.put((inum, NDADDR + i),
                          data[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE],
                          dirty=True)
    twins.do("dirty data", overwrite)
    fs = twins.fs
    assert fs.bcache.peek((inum, SINGLE_ROOT_LBN)) is None
    reads = fs.stats.blocks_read
    twins.do("sync", lambda fs: fs.sync())
    assert fs.stats.blocks_read == reads + 1


def test_directory_run_carries_dirop():
    """A directory spanning several blocks is relocated as one run, and
    each partial it lands in is flagged as a directory operation."""
    twins = Twins(4 * MB)
    twins.do("mkdir", lambda fs: fs.mkdir("/d"))

    def populate(fs):
        for i in range(60):
            fs.create(f"/d/{i:03d}" + "x" * 200)
    twins.do("populate", populate)
    twins.do("sync", lambda fs: fs.sync())
    assert any(len(fi.blocks) > 2 for *_, summary in _catalogues(twins.fs)
               if summary.flags & SS_DIROP for fi in summary.finfos)


def test_walk_that_evicts_its_own_root_goes_alone():
    """All buffers dirty but the double root: reading a child evicts the
    root, so the next bmap of the run reads the root again — each walk
    of the run is a real one, on both sides."""
    twins, inum = _twins_with_file(32 * KB, 4, first_lbn=CHILD_EDGE - 4)
    twins.do("sync", lambda fs: fs.sync())
    twins.do("drop", lambda fs: fs.bcache.drop_clean())
    # A bmap into child 1 (a hole) buffers the root and nothing else.
    twins.do("root", lambda fs: fs.bmap(fs.get_inode(inum), CHILD_EDGE))
    other = twins.do("create", lambda fs: fs.create("/g"))

    def fill(fs):   # dirty buffers up to capacity, without a flush
        for lbn in range(fs.bcache.capacity_blocks
                         - len(fs.bcache.lru_order())):
            fs.bcache.put((other, lbn), bytes(BLOCK_SIZE), dirty=True)
    twins.do("fill", fill)
    reads = twins.fs.stats.blocks_read
    items = [(inum, lbn, 0) for lbn in range(CHILD_EDGE - 4, CHILD_EDGE)]
    twins.do("lfs_bmapv", lambda fs: fs.lfs_bmapv(items))
    assert twins.fs.stats.blocks_read - reads == 1 + 2 * 3


def test_lfs_bmapv_runs_equal_per_item_answers():
    """Every written segment, asked in catalogue order and shuffled."""
    twins = run_script(6, 15, 64 * KB)
    rng = random.Random(9)
    for segno, seg in enumerate(twins.fs.ifile.segs):
        if not seg.flags & SEG_CLEAN:
            _bmapv_probe(twins, rng, segno)


def test_double_indirect_file_migrates_and_reads_back():
    """The migrator's staging re-points a double-indirect file by runs
    and stages its children and roots."""
    bed = make_highlight(64 * MB, n_platters=2, platter_constraint=64 * MB)
    fs, app = bed.fs, bed.app
    data = random.Random(5).randbytes(40 * BLOCK_SIZE)
    inum = fs.create("/big", actor=app)
    fs.write(inum, (CHILD_EDGE - 20) * BLOCK_SIZE, data, app)
    fs.sync(app)
    assert bed.migrator.migrate_file(inum, app) > 0
    bed.migrator.flush(app)
    assert fs.aspace.is_tertiary_segno(fs.aspace.segno_of(fs.get_inode(inum).ib[1]))
    fs.drop_caches(app, drop_inodes=True)
    assert fs.read(inum, (CHILD_EDGE - 20) * BLOCK_SIZE, len(data),
                   app) == data
    assert check_filesystem(fs).ok
