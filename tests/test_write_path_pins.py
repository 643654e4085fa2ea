"""Tier-1 pins: a faster segment writer must not become a more wasteful one.

The SNIPPETS.md LFS simulator reports two numbers for its writer — new
log blocks per file operation and the share of previously used space a
cleaning pass reclaims.  This bed overwrites, cleans and migrates a small
HighLight stack from one seed and pins both, with the buffer-cache hits
and the cleaner's forwarded blocks, at exact values: a change to how the
writer gathers, places or accounts blocks that costs one more log block,
forwards one more live block or touches the cache once more moves them.
"""

from fractions import Fraction
import random

from repro import obs
from repro.core.stack import make_highlight
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.util.units import KB, MB

FILES = 20
FILE_BYTES = 640 * KB
OPS = 400


COUNTERS = ("buffercache_hits_total", "cleaner_blocks_forwarded_total")


def _counter(name):
    child = obs.counter(name).labels()
    child.inc(0)   # a series not yet recorded this epoch reads as 0
    return child.value


def run_bed(seed=28):
    """Overwrite + clean + migrate; returns the pinned quantities."""
    bed = make_highlight(24 * MB, n_platters=2, platter_constraint=48 * MB)
    fs, app = bed.fs, bed.app
    rng = random.Random(seed)
    paths = [f"/t{i:02d}" for i in range(FILES)]
    for path in paths:
        fs.write_path(path, rng.randbytes(FILE_BYTES), actor=app)
    fs.checkpoint(app)
    cleaner = Cleaner(fs, GreedyPolicy(), actor=app, target_clean=6)
    counts0 = {name: _counter(name) for name in COUNTERS}
    written0 = fs.stats.blocks_written
    for op in range(OPS):
        path = rng.choice(paths)
        offset = rng.randrange(FILE_BYTES // (16 * KB)) * 16 * KB
        fs.write_path(path, rng.randbytes(16 * KB), offset, actor=app)
        if op % 25 == 24:
            cleaner.run()
        if op % 100 == 99:
            bed.migrator.migrate_file(rng.choice(paths), app)
    fs.sync(app)
    cleaned = cleaner.segments_cleaned * fs.config.blocks_per_seg
    return {
        "log_blocks_per_op": Fraction(fs.stats.blocks_written - written0,
                                      OPS),
        "reclaimed_share": 1 - Fraction(cleaner.blocks_forwarded, cleaned),
        **{name: _counter(name) - counts0[name] for name in COUNTERS},
    }


def test_writer_waste_is_pinned():
    assert run_bed() == PINNED


#: Measured on the per-block writer, before runs: the run path moved none.
PINNED = {
    "log_blocks_per_op": Fraction(1341, 200),      # 6.705
    "reclaimed_share": Fraction(505, 1024),        # 49.3%
    "buffercache_hits_total": 9788,
    "cleaner_blocks_forwarded_total": 1038,
}
