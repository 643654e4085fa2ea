"""Property-based tests: LFS behaves like an ideal byte store.

A dict-of-bytes model shadows the filesystem through random operation
sequences; every read must match, before and after sync/checkpoint/
remount, and segment accounting invariants must hold throughout.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.blockdev import profiles
from repro.lfs.constants import BLOCK_SIZE, SEGMENT_SIZE
from repro.lfs.filesystem import LFS
from repro.sim.actor import Actor
from repro.util.units import MB


def fresh_fs():
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=48 * MB)
    return LFS.mkfs(disk, actor=Actor("prop")), disk


FILES = ["/f0", "/f1", "/f2"]

write_op = st.tuples(st.just("write"),
                     st.sampled_from(FILES),
                     st.integers(0, 6 * BLOCK_SIZE),
                     st.integers(1, 200),
                     st.integers(0, 255))
read_op = st.tuples(st.just("read"), st.sampled_from(FILES),
                    st.integers(0, 8 * BLOCK_SIZE), st.integers(1, 4096),
                    st.just(0))
sync_op = st.tuples(st.just("sync"), st.just(""), st.just(0), st.just(0),
                    st.just(0))
unlink_op = st.tuples(st.just("unlink"), st.sampled_from(FILES),
                      st.just(0), st.just(0), st.just(0))

ops_strategy = st.lists(st.one_of(write_op, read_op, sync_op, unlink_op),
                        min_size=1, max_size=30)


class Model:
    """The ideal filesystem: a dict of growable bytearrays."""

    def __init__(self):
        self.files = {}

    def write(self, path, offset, data):
        buf = self.files.setdefault(path, bytearray())
        if len(buf) < offset:
            buf.extend(b"\0" * (offset - len(buf)))
        buf[offset:offset + len(data)] = data

    def read(self, path, offset, nbytes):
        buf = self.files.get(path)
        if buf is None:
            return None
        return bytes(buf[offset:offset + nbytes])

    def unlink(self, path):
        self.files.pop(path, None)


def apply_ops(fs, model, ops):
    for op, path, offset, length, fill in ops:
        if op == "write":
            data = bytes([fill]) * length
            model.write(path, offset, data)
            fs.write_path(path, data, offset=offset)
        elif op == "read":
            expected = model.read(path, offset, length)
            if expected is None:
                continue
            assert fs.read_path(path, offset, length) == expected
        elif op == "sync":
            fs.sync()
        elif op == "unlink":
            if path in model.files:
                model.unlink(path)
                fs.unlink(path)


def check_full_state(fs, model):
    for path, buf in model.files.items():
        assert fs.read_path(path) == bytes(buf), path
        assert fs.stat(path).size == len(buf)


@given(ops_strategy)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_read_your_writes(ops):
    fs, _disk = fresh_fs()
    model = Model()
    apply_ops(fs, model, ops)
    check_full_state(fs, model)


@given(ops_strategy)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_state_survives_remount(ops):
    fs, disk = fresh_fs()
    model = Model()
    apply_ops(fs, model, ops)
    fs.checkpoint()
    fs2 = LFS.mount(disk)
    check_full_state(fs2, model)


@given(ops_strategy)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rollforward_equals_checkpoint(ops):
    """Sync-then-crash must preserve exactly the same state as a clean
    checkpoint would."""
    fs, disk = fresh_fs()
    model = Model()
    apply_ops(fs, model, ops)
    fs.sync()          # data reaches the log, superblock is stale
    fs2 = LFS.mount(disk)  # roll-forward does the rest
    check_full_state(fs2, model)


@given(ops_strategy)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_accounting_invariants(ops):
    fs, _disk = fresh_fs()
    model = Model()
    apply_ops(fs, model, ops)
    fs.sync()
    for segno, seg in enumerate(fs.ifile.segs):
        assert 0 <= seg.live_bytes <= SEGMENT_SIZE, (
            f"segment {segno} live bytes out of range: {seg.live_bytes}")
        if seg.is_clean():
            assert not seg.is_dirty()
    active = [s for s in fs.ifile.segs if s.is_active()]
    assert len(active) == 1


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 64)),
                min_size=1, max_size=20))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_block_sparse_writes(chunks):
    """Random block-granular writes across the indirect boundary."""
    fs, _disk = fresh_fs()
    model = Model()
    for start_blk, nblocks in chunks:
        data = bytes([(start_blk + nblocks) % 256]) * (nblocks * 64)
        offset = start_blk * BLOCK_SIZE
        model.write("/sparse", offset, data)
        fs.write_path("/sparse", data, offset=offset)
    fs.sync()
    check_full_state(fs, model)
