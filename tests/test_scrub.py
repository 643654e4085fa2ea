"""Scrubber property tests: seeded bit-rot is caught within one cycle
and repaired with zero acknowledged-byte loss.

The property (docs/RECOVERY.md): for any seed choosing which copy rots
and where, a single ``run_cycle`` detects the mismatch (the write-time
CRC ledger is the oracle), the volume is quarantined through the
existing health path, the repair daemon restores redundancy from a
surviving copy, and every acknowledged byte still reads back.
"""

import random

import pytest

from repro.faults.health import VolumeHealth
from repro.faults.repair import RepairDaemon
from tests.crashkit import CrashHarness, payload


def _rotted_bed(seed, target="primary"):
    """A replicated, migrated bed with one copy of one segment rotted.

    Returns ``(harness, scrubber, rotted_volume_id)``.
    """
    h = CrashHarness(copies=2)
    h.commit("/data.dat", payload(seed, 512 * 1024))
    h.migrator.migrate_file("/data.dat")
    h.migrator.flush()
    h.fs.sched.pump(h.app)
    h.fs.checkpoint(h.app)
    # Eject the cache so read-back must go to tertiary.
    h.fs.service.flush_cache(h.app)
    h.fs.drop_caches(drop_inodes=True)
    h.fs.checkpoint(h.app)

    assert h.replicas.catalog, "migration should have replicated"
    rng = random.Random(seed)
    tsegno = sorted(h.replicas.catalog)[0]
    if target == "primary":
        vol, seg_in_vol = h.fs.aspace.volume_of(tsegno)
    else:
        vol, seg_in_vol = h.replicas.catalog[tsegno][0]
    vol_id = h.fs.tsegfile.volumes[vol].volume_id
    volume = h.jukebox.volumes[vol_id]
    bps = h.fs.sb.blocks_per_seg
    base = seg_in_vol * bps
    # Flip one byte somewhere in the segment image (silent bit-rot: the
    # medium still reads fine, only the content changed).
    blk = rng.randrange(bps)
    off = rng.randrange(volume.block_size)
    raw = bytearray(volume.store.read(base + blk, 1))
    raw[off] ^= 0x40
    volume.store.write(base + blk, bytes(raw))

    scrub = h.persist.make_scrubber()
    return h, scrub, vol_id


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("target", ["primary", "replica"])
def test_bitrot_detected_within_one_cycle(seed, target):
    h, scrub, vol_id = _rotted_bed(seed, target)
    report = scrub.run_cycle(h.app)
    assert report["mismatches"] >= 1, report
    assert h.persist.health.health_of(vol_id) is VolumeHealth.QUARANTINED


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("target", ["primary", "replica"])
def test_bitrot_repaired_with_zero_loss(seed, target):
    h, scrub, vol_id = _rotted_bed(seed, target)
    scrub.run_cycle(h.app)
    daemon = RepairDaemon(h.fs, h.persist.health)
    daemon.run_once(h.app)
    assert h.persist.health.health_of(vol_id) is VolumeHealth.RETIRED
    # Zero acknowledged-byte loss: every committed path reads back
    # (demand fetches now route around the retired copy).
    h.assert_acknowledged()


def test_clean_media_scrub_is_quiet():
    h = CrashHarness(copies=2)
    h.commit("/clean.dat", payload(41, 256 * 1024))
    h.migrator.migrate_file("/clean.dat")
    h.migrator.flush()
    h.fs.sched.pump(h.app)
    h.fs.checkpoint(h.app)
    scrub = h.persist.make_scrubber()
    report = scrub.run_cycle(h.app)
    assert report["mismatches"] == 0
    assert report["verified"] >= 1


def test_scrub_consumes_virtual_time():
    """Pacing is charged on the virtual clock, not the host's."""
    h = CrashHarness(copies=2)
    h.commit("/t.dat", payload(43, 256 * 1024))
    h.migrator.migrate_file("/t.dat")
    h.migrator.flush()
    h.fs.sched.pump(h.app)
    h.fs.checkpoint(h.app)
    scrub = h.persist.make_scrubber()
    t0 = h.app.time
    report = scrub.run_cycle(h.app)
    assert h.app.time >= t0 + scrub.pacing * report["verified"]


def test_torn_tertiary_write_leaves_stale_crc():
    """A write that dies before completing never updates the ledger, so
    the stale CRC is exactly the scrubber's detection signal."""
    h = CrashHarness()
    h.commit("/torn.dat", payload(47, 512 * 1024))
    h.migrator.migrate_file("/torn.dat")
    h.migrator.flush()
    h.fs.sched.pump(h.app)
    h.fs.checkpoint(h.app)
    entries = h.persist.ledger.entries()
    assert entries, "copy-out should have populated the ledger"
    vol_id, seg_in_vol, _crc = entries[0]
    volume = h.jukebox.volumes[vol_id]
    bps = h.fs.sb.blocks_per_seg
    # Model the tail of a torn overwrite: zero the second half of the
    # segment image directly on the medium, bypassing the footprint (so
    # the observer never fires).
    half = bps // 2
    volume.store.write(seg_in_vol * bps + half,
                       b"\x00" * (half * volume.block_size))
    scrub = h.persist.make_scrubber()
    report = scrub.run_cycle(h.app)
    assert report["mismatches"] >= 1
