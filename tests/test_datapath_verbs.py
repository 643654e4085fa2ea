"""The one data-path contract: two verbs per layer, one copy rule.

Every layer — store, disk, MO and tape drive, concat, jukebox,
Footprint, block map — implements ``read_refs`` and ``writev``; the
bytes names are the shared :class:`~repro.blockdev.datapath.BlockIO`
adapters.  These tests hold each layer to the store's copy rule and to
adapter/verb equivalence, and check that every timed write reaches a
crash-trapped store exactly once.
"""

import pytest

from repro import obs
from repro.blockdev import profiles
from repro.blockdev.datapath import ExtentRef, bytes_copied_total, materialize_refs
from repro.blockdev.extent import ExtentStore
from repro.blockdev.mo import MODrive, MOPlatter
from repro.blockdev.striped import ConcatDevice
from repro.blockdev.tape import TapeDrive, TapeVolume
from repro.core.addressing import AddressSpace, BlockMapDriver
from repro.footprint.robot import JukeboxFootprint
from repro.lfs.constants import BLOCK_SIZE, BLOCKS_PER_SEG, RESERVED_BLOCKS
from repro.persist.crashsim import CrashTrap, TrappedStore
from repro.sim.actor import Actor
from repro.util.units import MB

BS = BLOCK_SIZE
NBLK = 2


def image(seed: int, nblocks: int = NBLK) -> bytes:
    return bytes((seed + i) % 251 for i in range(nblocks * BS))


class _OneLineCache:
    """Segment-cache stand-in: one tertiary segment cached on one line."""

    def __init__(self, segno: int, line: int) -> None:
        self.segno, self.line = segno, line

    def lookup(self, segno: int):
        return self.line if segno == self.segno else None

    def touch(self, segno: int) -> None:
        pass


class Bed:
    """One layer under test: ``layer.verb(*addr, ...)`` reaches the media
    stores held by ``holders`` (objects with a ``store`` attribute)."""

    def __init__(self, layer, addr, holders, actor=None) -> None:
        self.layer, self.addr = layer, addr
        self.holders, self.actor = holders, actor

    @property
    def time(self) -> float:
        return self.actor.time if self.actor is not None else 0.0


class _StoreHolder:
    def __init__(self, store) -> None:
        self.store = store


def _store():
    holder = _StoreHolder(ExtentStore(64, BS))
    return Bed(holder.store, (8,), [holder])


def _disk():
    actor = Actor("a")
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=4 * MB)
    return Bed(disk, (actor, 8), [disk], actor)


def _mo():
    actor = Actor("a")
    drive, vol = MODrive("mo-t", profiles.HP6300_MO), MOPlatter(0, 4 * MB)
    drive.on_load(vol)
    return Bed(drive, (actor, 8), [vol], actor)


def _tape():
    actor = Actor("a")
    drive, vol = TapeDrive("tape-t"), TapeVolume(0, 4 * MB)
    drive.on_load(vol)
    return Bed(drive, (actor, 8), [vol], actor)


def _concat():
    actor = Actor("a")
    disks = [profiles.make_disk(profiles.RZ57, name=f"c{i}",
                                capacity_bytes=2 * MB) for i in range(2)]
    concat = ConcatDevice("concat", disks)
    return Bed(concat, (actor, disks[0].capacity_blocks + 8), disks, actor)


def _jukebox():
    actor = Actor("a")
    jb = profiles.make_hp6300(n_platters=2, n_drives=1,
                              platter_bytes=4 * MB)
    return Bed(jb, (actor, 1, 8), [jb.volumes[1]], actor)


def _footprint():
    bed = _jukebox()
    return Bed(JukeboxFootprint(bed.layer), bed.addr, bed.holders,
               bed.actor)


def _blockmap(tertiary: bool):
    actor = Actor("a")
    disk = profiles.make_disk(profiles.RZ57, capacity_bytes=32 * MB)
    aspace = AddressSpace(disk.capacity_blocks // BLOCKS_PER_SEG, [10, 10])
    driver = BlockMapDriver(aspace, disk, lookup_overhead=0.0)
    daddr = RESERVED_BLOCKS + 8
    if tertiary:
        tsegno = aspace.tertiary_segno(0, 3)
        driver.cache = _OneLineCache(tsegno, 2)
        daddr = aspace.seg_base(tsegno) + 8
    return Bed(driver, (actor, daddr), [disk], actor)


BEDS = {
    "store": _store,
    "disk": _disk,
    "mo": _mo,
    "tape": _tape,
    "concat": _concat,
    "jukebox": _jukebox,
    "footprint": _footprint,
    "blockmap-disk": lambda: _blockmap(False),
    "blockmap-tertiary": lambda: _blockmap(True),
}

pytestmark = pytest.mark.parametrize("kind", sorted(BEDS))


def _copied(fn) -> int:
    before = bytes_copied_total()
    fn()
    return bytes_copied_total() - before


class TestCopyRule:
    def test_bytes_part_is_kept_by_reference(self, kind):
        bed = BEDS[kind]()
        data = image(1)
        assert _copied(lambda: bed.layer.write(*bed.addr, data)) == 0
        assert bed.layer.read(*bed.addr, NBLK) is data

    @pytest.mark.parametrize("wrap", [bytearray,
                                      lambda b: memoryview(bytearray(b))])
    def test_mutable_part_is_snapshotted_once(self, kind, wrap):
        bed = BEDS[kind]()
        data = image(2)
        buf = wrap(data)
        assert _copied(lambda: bed.layer.write(*bed.addr, buf)) == len(data)
        buf[:] = bytes(len(data))  # the caller reuses its buffer
        assert bed.layer.read(*bed.addr, NBLK) == data

    def test_ref_part_is_adopted(self, kind):
        bed = BEDS[kind]()
        big = image(3, NBLK + 2)
        ref = ExtentRef(big, BS, NBLK * BS)
        assert _copied(lambda: bed.layer.write_refs(*bed.addr, [ref])) == 0
        assert bed.layer.read(*bed.addr, NBLK) == big[BS:(NBLK + 1) * BS]

    def test_block_splitting_refs_are_joined_once(self, kind):
        bed = BEDS[kind]()
        data = image(4)
        half = BS // 2
        refs = [ExtentRef(data, 0, half),
                ExtentRef(data, half, len(data) - half)]
        assert _copied(lambda: bed.layer.writev(*bed.addr, refs)) \
            == len(data)
        assert bed.layer.read(*bed.addr, NBLK) == data

    def test_unaligned_total_raises(self, kind):
        bed = BEDS[kind]()
        with pytest.raises(Exception):
            bed.layer.writev(*bed.addr, [image(5) + b"x"])


def _device_series():
    counters = obs.metrics().snapshot()
    return {section: {k: v for k, v in series.items()
                      if k.startswith("device_io")}
            for section, series in counters.items()}


class TestAdaptersEqualTheVerbs:
    def test_same_bytes_time_and_device_series(self, kind):
        data = image(6)

        def run(through_adapters: bool):
            obs.reset()
            bed = BEDS[kind]()
            layer = bed.layer
            if through_adapters:
                layer.write(*bed.addr, data)
                got = layer.read(*bed.addr, NBLK)
            else:
                layer.writev(*bed.addr, [data])
                got = materialize_refs(layer.read_refs(*bed.addr, NBLK))
            return got, bed.time, _device_series()

        assert run(True) == run(False)


class TestBorrowLifetime:
    def test_a_read_after_an_overwrite_sees_the_new_bytes(self, kind):
        """A layer that kept a lent range past its call and handed it out
        again would return the overwritten borrow: the armed sanitizer
        raises, and unarmed the bytes are stale."""
        bed = BEDS[kind]()
        for seed in (8, 9):
            bed.layer.write(*bed.addr, image(seed))
            assert bed.layer.read(*bed.addr, NBLK) == image(seed)


class TestCrashTrap:
    @pytest.mark.parametrize("verb", ["write", "write_refs", "writev"])
    def test_every_timed_write_reaches_the_trap_once(self, kind, verb):
        bed = BEDS[kind]()
        trap = CrashTrap()
        for holder in bed.holders:
            holder.store = TrappedStore(holder.store, trap)
        layer = bed.holders[0].store if kind == "store" else bed.layer
        data = image(7)
        part = {"write": data, "write_refs": [ExtentRef(data, 0, len(data))],
                "writev": [data]}[verb]
        getattr(layer, verb)(*bed.addr, part)
        assert trap.writes_seen == 1
