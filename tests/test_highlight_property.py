"""Property-based tests for the full HighLight hierarchy.

A dict model shadows random operation sequences that interleave writes,
reads, whole-file migration, cache ejection, cleaning, and checkpoints;
content must match at every read, the consistency checker must pass at
the end, and a crash/remount must preserve everything.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.stack import make_highlight, remount
from repro.lfs.check import check_filesystem
from repro.lfs.cleaner import Cleaner, GreedyPolicy
from repro.util.units import MB

FILES = ["/p0", "/p1", "/p2"]


def fresh_bed():
    return make_highlight(64 * MB, n_platters=4, platter_constraint=20 * MB)


op_write = st.tuples(st.just("write"), st.sampled_from(FILES),
                     st.integers(0, 40), st.integers(1, 30),
                     st.integers(0, 255))
op_read = st.tuples(st.just("read"), st.sampled_from(FILES),
                    st.integers(0, 50), st.integers(1, 20), st.just(0))
op_migrate = st.tuples(st.just("migrate"), st.sampled_from(FILES),
                       st.just(0), st.just(0), st.just(0))
op_eject = st.tuples(st.just("eject"), st.just(""), st.just(0),
                     st.just(0), st.just(0))
op_clean = st.tuples(st.just("clean"), st.just(""), st.just(0),
                     st.just(0), st.just(0))
op_ckpt = st.tuples(st.just("checkpoint"), st.just(""), st.just(0),
                    st.just(0), st.just(0))

ops_strategy = st.lists(
    st.one_of(op_write, op_read, op_migrate, op_eject, op_clean, op_ckpt),
    min_size=3, max_size=22)

BLK = 4096


def apply_ops(fs, migrator, app, ops):
    model = {}
    cleaner = Cleaner(fs, GreedyPolicy(), target_clean=10_000,
                      max_per_pass=4)
    for op, path, a, b, fill in ops:
        if op == "write":
            data = bytes([fill]) * (b * 256)
            offset = a * BLK
            buf = model.setdefault(path, bytearray())
            if len(buf) < offset:
                buf.extend(b"\0" * (offset - len(buf)))
            buf[offset:offset + len(data)] = data
            fs.write_path(path, data, offset=offset)
        elif op == "read":
            buf = model.get(path)
            if buf is None:
                continue
            offset, n = a * BLK, b * 128
            expected = bytes(buf[offset:offset + n])
            assert fs.read(fs.lookup(path), offset, n) == expected
        elif op == "migrate":
            if path in model:
                app.sleep(30)
                migrator.migrate_file(path, app)
                migrator.flush(app)
        elif op == "eject":
            fs.service.flush_cache(app)
            fs.drop_caches(app)
        elif op == "clean":
            cleaner.clean_pass()
        elif op == "checkpoint":
            fs.checkpoint(app)
    return model


def verify_model(fs, model):
    for path, buf in model.items():
        assert fs.read_path(path) == bytes(buf), path


@given(ops_strategy)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hierarchy_read_your_writes(ops):
    bed = fresh_bed()
    model = apply_ops(bed.fs, bed.migrator, bed.app, ops)
    verify_model(bed.fs, model)


@given(ops_strategy)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hierarchy_consistency_invariants(ops):
    bed = fresh_bed()
    apply_ops(bed.fs, bed.migrator, bed.app, ops)
    bed.fs.checkpoint(bed.app)
    report = check_filesystem(bed.fs)
    assert report.ok, report.errors


@given(ops_strategy)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hierarchy_survives_crash(ops):
    bed = fresh_bed()
    model = apply_ops(bed.fs, bed.migrator, bed.app, ops)
    bed.fs.checkpoint(bed.app)
    fs2 = remount(bed).fs
    verify_model(fs2, model)
    report = check_filesystem(fs2)
    assert report.ok, report.errors
