"""Unit tests: data stores, disks, geometry, buses, striping."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.blockdev.base import CPUModel
from repro.blockdev.bus import SCSIBus
from repro.blockdev.disk import DiskDevice
from repro.blockdev.extent import ExtentStore
from repro.blockdev.geometry import DiskProfile, seek_time
from repro.blockdev.striped import ConcatDevice
from repro.blockdev import profiles
from repro.errors import AddressError, InvalidArgument
from repro.sim.actor import Actor
from repro.util.units import KB, MB
from tests.blockstore_model import BlockStore


def small_profile(**overrides):
    base = dict(name="test", capacity_bytes=16 * MB, cylinders=64)
    base.update(overrides)
    return DiskProfile(**base)


class TestBlockStore:
    """Sparse-store semantics, checked on the per-block reference model
    so the model itself stays right."""

    store_cls = BlockStore

    def test_roundtrip(self):
        store = self.store_cls(16, 4096)
        data = bytes(range(256)) * 16
        store.write(3, data)
        assert store.read(3, 1) == data

    def test_unwritten_reads_zero(self):
        store = self.store_cls(4, 4096)
        assert store.read(0, 1) == bytes(4096)

    def test_multi_block(self):
        store = self.store_cls(8, 4096)
        image = b"\x11" * 4096 + b"\x22" * 4096
        store.write(2, image)
        assert store.read(2, 2) == image
        assert store.read(3, 1) == b"\x22" * 4096

    def test_out_of_range(self):
        store = self.store_cls(4, 4096)
        with pytest.raises(AddressError):
            store.read(3, 2)
        with pytest.raises(AddressError):
            store.write(4, bytes(4096))

    def test_unaligned_write_rejected(self):
        store = self.store_cls(4, 4096)
        with pytest.raises(InvalidArgument):
            store.write(0, b"short")

    def test_zero_nblocks_rejected(self):
        with pytest.raises(InvalidArgument):
            self.store_cls(4, 4096).read(0, 0)

    def test_is_written_and_discard(self):
        store = self.store_cls(4, 4096)
        store.write(1, bytes(4096))
        assert store.is_written(1)
        store.discard(1)
        assert not store.is_written(1)

    @given(st.dictionaries(st.integers(0, 31),
                           st.binary(min_size=8, max_size=16),
                           max_size=8))
    # Run once per store class by design (the subclass below inherits it).
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_store_matches_model(self, model):
        store = self.store_cls(32, 4096)
        expanded = {blk: seed.ljust(4096, b"\0")
                    for blk, seed in model.items()}
        for blk, data in expanded.items():
            store.write(blk, data)
        for blk in range(32):
            expected = expanded.get(blk, bytes(4096))
            assert store.read(blk, 1) == expected


class TestExtentStoreSemantics(TestBlockStore):
    """The same cases on the store the devices use."""

    store_cls = ExtentStore


class TestSeekModel:
    def test_zero_distance_free(self):
        assert seek_time(0, 1000, 0.004, 0.015, 0.03) == 0.0

    def test_third_stroke_is_average(self):
        ncyl = 900
        t = seek_time(ncyl // 3, ncyl, 0.004, 0.015, 0.03)
        assert t == pytest.approx(0.015, rel=0.01)

    def test_monotonic_in_distance(self):
        times = [seek_time(d, 1000, 0.004, 0.015, 0.05)
                 for d in (1, 10, 100, 500, 999)]
        assert times == sorted(times)

    def test_capped_at_max(self):
        assert seek_time(10_000, 1000, 0.004, 0.015, 0.03) == 0.03


class TestDiskProfile:
    def test_geometry(self):
        p = small_profile()
        assert p.capacity_blocks == 4096
        assert p.blocks_per_cylinder == 64
        assert p.cylinder_of(0) == 0
        assert p.cylinder_of(4095) == 63

    def test_rotation(self):
        p = small_profile(rpm=3600)
        assert p.rotation_time == pytest.approx(1 / 60)
        assert p.avg_rotational_latency == pytest.approx(1 / 120)

    def test_transfer_rates(self):
        p = small_profile(media_read_rate=1024 * KB,
                          media_write_rate=512 * KB)
        assert p.transfer(1024 * KB, is_write=False) == pytest.approx(1.0)
        assert p.transfer(1024 * KB, is_write=True) == pytest.approx(2.0)

    def test_scaled(self):
        p = small_profile().scaled(capacity_bytes=32 * MB)
        assert p.capacity_blocks == 8192
        assert p.name == "test"


class TestDiskDevice:
    def test_data_roundtrip(self):
        disk = DiskDevice(small_profile())
        actor = Actor("a")
        payload = b"\xab" * 8192
        disk.write(actor, 10, payload)
        assert disk.read(actor, 10, 2) == payload

    def test_sequential_streams(self):
        disk = DiskDevice(small_profile())
        actor = Actor("a")
        disk.read(actor, 0, 16)
        t0 = actor.time
        disk.read(actor, 16, 16)  # continues exactly: no positioning
        elapsed = actor.time - t0
        expected = (disk.profile.per_op_overhead
                    + disk.profile.transfer(16 * 4096, False))
        assert elapsed == pytest.approx(expected, rel=0.01)

    def test_blown_revolution_when_late(self):
        disk = DiskDevice(small_profile())
        actor = Actor("a")
        disk.read(actor, 0, 16)
        actor.sleep(0.050)  # think too long: the sector rotates past
        t0 = actor.time
        disk.read(actor, 16, 16)
        elapsed = actor.time - t0
        expected = (disk.profile.per_op_overhead
                    + disk.profile.rotation_time
                    + disk.profile.transfer(16 * 4096, False))
        assert elapsed == pytest.approx(expected, rel=0.01)

    def test_random_pays_seek_and_rotation(self):
        disk = DiskDevice(small_profile())
        actor = Actor("a")
        disk.read(actor, 0, 1)
        t0 = actor.time
        disk.read(actor, 4000, 1)  # far away
        elapsed = actor.time - t0
        assert elapsed > disk.profile.avg_rotational_latency

    def test_two_actors_contend(self):
        disk = DiskDevice(small_profile())
        a, b = Actor("a"), Actor("b")
        disk.read(a, 0, 64)
        t_solo = a.time
        disk.read(b, 2048, 64)
        # b's op could not start before a's finished on the shared arm.
        assert b.time > t_solo

    def test_stats(self):
        disk = DiskDevice(small_profile())
        actor = Actor("a")
        disk.write(actor, 0, bytes(4096))
        disk.read(actor, 0, 1)
        reg = obs.metrics()
        for op in ("read", "write"):
            assert reg.get("device_io_ops_total", device=disk.name,
                           op=op) == 1
            assert reg.get("device_io_bytes_total", device=disk.name,
                           op=op) == 4096

    def test_bus_shared_with_transfer_only(self):
        bus = SCSIBus("scsi", bandwidth=100 * MB)
        disk = DiskDevice(small_profile(), bus=bus)
        actor = Actor("a")
        disk.read(actor, 0, 16)
        # The bus was held only for the transfer, not the positioning.
        assert bus.busy_seconds < actor.time


class TestCPUModel:
    def test_copy_charges(self):
        cpu = CPUModel(copy_rate=1 * MB, per_block_op=0.001)
        actor = Actor("a")
        cpu.copy(actor, MB)
        assert actor.time == pytest.approx(1.0)

    def test_block_ops_charge(self):
        cpu = CPUModel(copy_rate=1 * MB, per_block_op=0.002)
        actor = Actor("a")
        cpu.block_ops(actor, 5)
        assert actor.time == pytest.approx(0.010)

    def test_free_cpu(self):
        # An infinite copy rate and free block ops charge nothing: the
        # zero-cost CPU the name-cache replay test runs on.
        cpu = CPUModel(copy_rate=float("inf"), per_block_op=0.0)
        actor = Actor("a")
        cpu.copy(actor, 10 * MB)
        cpu.block_ops(actor, 1000)
        assert actor.time == 0.0


class TestConcatDevice:
    def _concat(self):
        d1 = DiskDevice(small_profile(name="d1"))
        d2 = DiskDevice(small_profile(name="d2"))
        return ConcatDevice("farm", [d1, d2]), d1, d2

    def test_capacity(self):
        concat, d1, d2 = self._concat()
        assert concat.capacity_blocks == d1.capacity_blocks * 2

    def test_locate(self):
        concat, d1, _ = self._concat()
        assert concat.locate(0) == (0, 0)
        assert concat.locate(d1.capacity_blocks) == (1, 0)
        assert concat.locate(d1.capacity_blocks + 5) == (1, 5)

    def test_locate_out_of_range(self):
        concat, _, _ = self._concat()
        with pytest.raises(AddressError):
            concat.locate(concat.capacity_blocks)

    def test_io_routes_to_component(self):
        concat, d1, d2 = self._concat()
        actor = Actor("a")
        concat.write(actor, d1.capacity_blocks + 1, b"\x7f" * 4096)
        assert d2.store.is_written(1)
        assert not d1.store.is_written(1)

    def test_io_spans_boundary(self):
        concat, d1, d2 = self._concat()
        actor = Actor("a")
        image = b"\x01" * 4096 + b"\x02" * 4096
        concat.write(actor, d1.capacity_blocks - 1, image)
        assert concat.read(actor, d1.capacity_blocks - 1, 2) == image
        assert d1.store.is_written(d1.capacity_blocks - 1)
        assert d2.store.is_written(0)

    def test_mismatched_block_size_rejected(self):
        d1 = DiskDevice(small_profile())
        d2 = DiskDevice(small_profile(block_size=512, capacity_bytes=MB))
        with pytest.raises(InvalidArgument):
            ConcatDevice("bad", [d1, d2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConcatDevice("empty", [])

    @given(st.integers(0, 8191), st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_split_covers_range(self, blkno, nblocks):
        concat, _, _ = self._concat()
        if blkno + nblocks > concat.capacity_blocks:
            return
        runs = list(concat._split(blkno, nblocks))
        assert sum(r[2] for r in runs) == nblocks


class TestCalibratedProfiles:
    def test_table5_anchors(self):
        assert profiles.RZ57.media_read_rate == 1417.0 * KB
        assert profiles.RZ57.media_write_rate == 993.0 * KB
        assert profiles.RZ58.media_read_rate == 1491.0 * KB
        assert profiles.HP6300_MO.media_write_rate == 204.0 * KB
        assert profiles.HP6300_SWAP_TIME == 13.5

    def test_make_disk_resize(self):
        disk = profiles.make_disk(profiles.RZ57, capacity_bytes=848 * MB)
        assert disk.capacity_blocks * disk.block_size == 848 * MB

    def test_cpu_factory_isolated(self):
        a = profiles.make_cpu()
        b = profiles.make_cpu()
        assert a is not b
        assert a.copy_rate == b.copy_rate
