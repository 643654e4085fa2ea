"""Unit tests: removable media, MO/tape drives, jukebox robotics, Footprint."""

import pytest

from repro.blockdev import profiles
from repro.blockdev.bus import SCSIBus
from repro.blockdev.jukebox import Jukebox, RemovableVolume
from repro.blockdev.mo import MODrive, MOPlatter
from repro.blockdev.tape import TapeDrive, TapeVolume
from repro.errors import (EndOfMedium, NoSuchVolume, ReadOnlyMedium,
                          VolumeNotLoaded)
from repro.footprint.robot import JukeboxFootprint
from repro.sim.actor import Actor
from repro.util.units import KB, MB


def mo_jukebox(n_platters=4, n_drives=2, bus=None, effective=None):
    return profiles.make_hp6300(n_platters=n_platters, n_drives=n_drives,
                                bus=bus, effective_platter_bytes=effective)


class TestRemovableVolume:
    def test_effective_capacity(self):
        vol = RemovableVolume(0, 100 * MB, effective_capacity_bytes=40 * MB)
        assert vol.capacity_blocks == 100 * MB // 4096
        assert vol.effective_capacity_blocks == 40 * MB // 4096

    def test_duplicate_ids_rejected(self):
        vols = [RemovableVolume(1, MB), RemovableVolume(1, MB)]
        drive = MODrive("d0", profiles.HP6300_MO)
        with pytest.raises(ValueError):
            Jukebox("jb", [drive], vols)


class TestMODrive:
    def test_requires_loaded_volume(self):
        drive = MODrive("mo0", profiles.HP6300_MO)
        with pytest.raises(VolumeNotLoaded):
            drive.read(Actor("a"), 0, 1)

    def test_end_of_medium(self):
        vol = MOPlatter(0, 10 * MB, effective_capacity_bytes=2 * MB)
        drive = MODrive("mo0", profiles.HP6300_MO)
        drive.on_load(vol)
        actor = Actor("a")
        drive.write(actor, 0, bytes(MB))
        with pytest.raises(EndOfMedium):
            drive.write(actor, 256, bytes(2 * MB))

    def test_worm_rejects_overwrite(self):
        vol = MOPlatter(0, 10 * MB, write_once=True)
        drive = MODrive("mo0", profiles.HP6300_MO)
        drive.on_load(vol)
        actor = Actor("a")
        drive.write(actor, 0, bytes(4096))
        with pytest.raises(ReadOnlyMedium):
            drive.write(actor, 0, bytes(4096))

    def test_positioning_reset_on_media_change(self):
        v0, v1 = MOPlatter(0, 10 * MB), MOPlatter(1, 10 * MB)
        drive = MODrive("mo0", profiles.HP6300_MO)
        actor = Actor("a")
        drive.on_load(v0)
        drive.read(actor, 0, 256)
        drive.on_load(v1)
        t0 = actor.time
        drive.read(actor, 256, 256)  # would stream on v0; must not on v1
        assert actor.time - t0 > drive.profile.transfer(MB, False)

    def test_read_rate_matches_calibration(self):
        vol = MOPlatter(0, 100 * MB)
        drive = MODrive("mo0", profiles.HP6300_MO)
        drive.on_load(vol)
        actor = Actor("a")
        drive.read(actor, 0, 1)  # position
        t0 = actor.time
        for i in range(5):
            drive.read(actor, 1 + i * 256, 256)
        rate = 5 * MB / (actor.time - t0)
        assert rate == pytest.approx(451 * KB, rel=0.02)


class TestTapeDrive:
    def _loaded(self):
        vol = TapeVolume(0, 100 * MB)
        drive = TapeDrive("t0", read_rate=MB, write_rate=MB,
                          wind_rate=50 * MB)
        drive.on_load(vol)
        return drive, vol

    def test_roundtrip(self):
        drive, _ = self._loaded()
        actor = Actor("a")
        drive.write(actor, 0, b"\x55" * 8192)
        assert drive.read(actor, 0, 2) == b"\x55" * 8192

    def test_wind_cost_proportional_to_distance(self):
        drive, _ = self._loaded()
        actor = Actor("a")
        drive.read(actor, 0, 1)
        t0 = actor.time
        drive.read(actor, 10_000, 1)
        far = actor.time - t0
        t0 = actor.time
        drive.read(actor, 10_002, 1)
        near = actor.time - t0
        assert far > near * 5

    def test_first_io_after_load_pays_thread_time(self, monkeypatch):
        drive, _ = self._loaded()
        actor = Actor("a")
        winds = []
        monkeypatch.setattr(drive.stats, "record",
                            lambda op, nbytes, wind, xfer: winds.append(wind))
        costs = []
        for _ in range(2):
            t0 = actor.time
            drive.read(actor, 0, 1)
            costs.append(actor.time - t0)
        # The repeat winds back one block (80 us) instead of threading.
        assert costs[0] - costs[1] == pytest.approx(drive.thread_time,
                                                    abs=1e-3)
        # Threading is transport time, not wind: the first read is at
        # the tape's start, so it records no wind at all.
        assert winds == [0.0, drive.block_size / drive.wind_rate]

    def test_streaming_no_reposition(self):
        drive, _ = self._loaded()
        actor = Actor("a")
        drive.write(actor, 0, bytes(MB))
        t0 = actor.time
        drive.write(actor, 256, bytes(MB))  # head is already there
        assert actor.time - t0 == pytest.approx(
            drive.per_op_overhead + 1.0, rel=0.01)

    def test_end_of_medium(self):
        vol = TapeVolume(0, 100 * MB, effective_capacity_bytes=MB)
        drive = TapeDrive("t0")
        drive.on_load(vol)
        with pytest.raises(EndOfMedium):
            drive.write(Actor("a"), 0, bytes(2 * MB))


class TestJukebox:
    def test_load_costs_swap_time(self):
        jb = mo_jukebox()
        actor = Actor("a")
        jb.load(actor, 0)
        assert actor.time == pytest.approx(jb.swap_time, rel=0.01)

    def test_reload_is_free(self):
        jb = mo_jukebox()
        actor = Actor("a")
        jb.load(actor, 0)
        t = actor.time
        jb.load(actor, 0)
        assert actor.time == t

    def test_unknown_volume(self):
        jb = mo_jukebox()
        with pytest.raises(NoSuchVolume):
            jb.load(Actor("a"), 99)

    def test_two_drives_hold_two_volumes(self):
        jb = mo_jukebox()
        actor = Actor("a")
        d0 = jb.load(actor, 0)
        d1 = jb.load(actor, 1)
        assert d0 != d1
        assert jb.drive_holding(0) == d0
        assert jb.drive_holding(1) == d1

    def test_lru_drive_evicted(self):
        jb = mo_jukebox()
        actor = Actor("a")
        d0 = jb.load(actor, 0)
        d1 = jb.load(actor, 1)
        jb.read(actor, 0, 0, 1)  # volume 0 recently used
        d2 = jb.load(actor, 2)   # should evict volume 1's drive
        assert d2 == d1
        assert jb.drive_holding(0) == d0
        assert jb.drive_holding(1) is None

    def test_pinned_drive_not_evicted(self):
        jb = mo_jukebox()
        actor = Actor("a")
        d0 = jb.load(actor, 0)
        jb.drives[d0].pinned = True
        jb.load(actor, 1)
        jb.load(actor, 2)
        assert jb.drive_holding(0) == d0  # survived both swaps

    def test_bus_hogged_during_swap(self):
        bus = SCSIBus()
        jb = mo_jukebox(bus=bus)
        actor = Actor("a")
        jb.load(actor, 0)
        assert bus.hog_seconds == pytest.approx(jb.swap_time)

    def test_volume_addressed_io(self):
        jb = mo_jukebox()
        actor = Actor("a")
        jb.write(actor, 2, 5, b"\x99" * 4096)
        assert jb.read(actor, 2, 5, 1) == b"\x99" * 4096
        assert jb.swap_count == 1


class TestFootprint:
    def test_inventory(self):
        fp = JukeboxFootprint(mo_jukebox(effective=40 * MB))
        vols = fp.volumes()
        assert len(vols) == 4
        assert vols[0].effective_capacity_blocks == 40 * MB // 4096
        assert vols[0].capacity_blocks == 650 * MB // 4096

    def test_volume_info(self):
        fp = JukeboxFootprint(mo_jukebox())
        info = fp.volume_info(1)
        assert info.volume_id == 1
        with pytest.raises(NoSuchVolume):
            fp.volume_info(99)

    def test_read_write_roundtrip(self):
        fp = JukeboxFootprint(mo_jukebox())
        actor = Actor("a")
        fp.write(actor, 0, 10, b"\x13" * 8192)
        assert fp.read(actor, 0, 10, 2) == b"\x13" * 8192

    def test_write_drive_pinned(self):
        jb = mo_jukebox()
        fp = JukeboxFootprint(jb)
        actor = Actor("a")
        fp.pin_write_drive(0)
        fp.write(actor, 0, 0, bytes(4096))
        write_drive = jb.drive_holding(0)
        assert jb.drives[write_drive].pinned
        # Reads of other volumes use the other drive.
        fp.read(actor, 1, 0, 1)
        fp.read(actor, 2, 0, 1)
        assert jb.drive_holding(0) == write_drive

    def test_write_drive_serves_its_own_reads(self):
        jb = mo_jukebox()
        fp = JukeboxFootprint(jb)
        actor = Actor("a")
        fp.pin_write_drive(0)
        fp.write(actor, 0, 0, bytes(4096))
        write_drive = jb.drive_holding(0)
        swaps = jb.swap_count
        fp.read(actor, 0, 0, 1)
        assert jb.swap_count == swaps  # no extra swap
        assert jb.drive_holding(0) == write_drive

    def test_mark_full(self):
        fp = JukeboxFootprint(mo_jukebox())
        fp.mark_full(3)
        assert fp.volume_info(3).marked_full
