"""Scrubber property tests: seeded bit-rot is caught within one cycle
and repaired with zero acknowledged-byte loss.

The property (docs/RECOVERY.md): for any seed choosing which copy rots
and where, a single ``run_cycle`` detects the mismatch (the write-time
CRC ledger is the oracle), the volume is quarantined through the
existing health path, the repair daemon restores redundancy from a
surviving copy, and every acknowledged byte still reads back.
"""

import pytest

from repro import obs
from repro.faults.health import VolumeHealth
from repro.faults.repair import RepairDaemon
from repro.persist.crashsim import CrashHarness, payload
from repro.persist.scrub import EV_SCRUB_MISMATCH, SCRUB_PACING


def _rotted_bed(seed, target="primary"):
    """A replicated, migrated bed with one copy of one segment rotted:
    a tertiary copy (``primary``/``replica``), or the disk image of a
    sealed cache line (``cache``).

    Returns ``(harness, scrubber, rotted)``: the rotted volume id, or
    the rotted line's tertiary segment number.
    """
    h = CrashHarness(copies=2)
    h.commit("/data.dat", payload(seed, 512 * 1024))
    h.migrate("/data.dat")
    if target != "cache":
        # Eject the cache so read-back must go to tertiary.
        h.fs.service.flush_cache(h.app)
    h.fs.drop_caches(drop_inodes=True)
    h.fs.checkpoint(h.app)
    assert h.replicas.catalog, "migration should have replicated"
    rotted = h.rot(seed, target)
    return h, h.persist.make_scrubber(), rotted


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("target", ["primary", "replica", "cache"])
def test_bitrot_detected_within_one_cycle(seed, target):
    h, scrub, rotted = _rotted_bed(seed, target)
    report = scrub.run_cycle(h.app)
    assert report["mismatches"] >= 1, report
    if target != "cache":
        assert h.persist.health.health_of(rotted) \
            is VolumeHealth.QUARANTINED
        return
    # A rotted cache line is counted, traced and ejected; the tertiary
    # copy is authoritative, so every acknowledged byte reads back
    # through a fresh demand fetch.
    assert obs.metrics().get("scrub_mismatches_total", tier="cache") == 1
    assert [e.fields["tier"] for e in obs.trace().events(
        EV_SCRUB_MISMATCH)] == ["cache"]
    assert rotted not in {tsegno for tsegno, _, _ in h.fs.cache.entries()}
    fetches = h.fs.stats.demand_fetches
    h.assert_acknowledged()
    assert h.fs.stats.demand_fetches > fetches


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("target", ["primary", "replica"])
def test_bitrot_repaired_with_zero_loss(seed, target):
    h, scrub, vol_id = _rotted_bed(seed, target)
    scrub.run_cycle(h.app)
    daemon = RepairDaemon(h.fs)
    daemon.run_once(h.app)
    assert h.persist.health.health_of(vol_id) is VolumeHealth.RETIRED
    # Zero acknowledged-byte loss: every committed path reads back
    # (demand fetches now route around the retired copy).
    h.assert_acknowledged()


def test_clean_media_scrub_is_quiet():
    h = CrashHarness(copies=2)
    h.commit("/clean.dat", payload(41, 256 * 1024))
    h.migrate("/clean.dat")
    scrub = h.persist.make_scrubber()
    report = scrub.run_cycle(h.app)
    assert report["mismatches"] == 0
    assert report["verified"] >= 1


def test_scrub_consumes_virtual_time():
    """Pacing is charged on the virtual clock, not the host's."""
    h = CrashHarness(copies=2)
    h.commit("/t.dat", payload(43, 256 * 1024))
    h.migrate("/t.dat")
    scrub = h.persist.make_scrubber()
    t0 = h.app.time
    report = scrub.run_cycle(h.app)
    assert h.app.time >= t0 + SCRUB_PACING * report["verified"]


def test_torn_tertiary_write_leaves_stale_crc():
    """A write that dies before completing never updates the ledger, so
    the stale CRC is exactly the scrubber's detection signal."""
    h = CrashHarness()
    h.commit("/torn.dat", payload(47, 512 * 1024))
    h.migrate("/torn.dat")
    entries = h.persist.ledger.entries()
    assert entries, "copy-out should have populated the ledger"
    vol_id, seg_in_vol, _crc = entries[0]
    volume = h.bed.jukebox.volumes[vol_id]
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
