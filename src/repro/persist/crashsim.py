"""Process-death simulation and the crash harness built on it.

A crash in this simulator is modelled honestly: every in-memory object —
filesystem, cache directory, health registry, scheduler, clocks — is
abandoned, and the only state that survives is what had reached the
device stores.  :func:`snapshot_media` freezes those stores as images;
a fresh device farm (:func:`repro.core.stack.make_farm`) loaded with
:func:`restore_media` is "the same platters in a new machine", ready for
:func:`repro.core.stack.remount` + ``fs.recover()``.

:class:`CrashTrap` + :class:`TrappedStore` inject the kill point: the
trap counts store-level writes across *all* trapped devices and, on the
chosen write, lets only a prefix of it reach the medium (a torn write)
before raising :class:`SimulatedCrash`.  Wrapping at the store layer —
below the timed device models — means disk, MO, and tape writes are all
crashable through one mechanism, the same delegation idiom as the torn-
write tests' ``TornWriteDisk``.

:class:`CrashHarness` is the one crash/restart loop: the tier-1 crash
matrix, the recovery golden trace, the scrub tests and
``--scenario crashes`` all drive it.  It builds a persistence-enabled
bed with every store trapped, runs a scripted workload phase with the
trap armed at a seeded store write, then kills the process model and
restarts from the media.  The invariant under test is the
**acknowledged-write contract**: every byte whose ``checkpoint()``
returned before the crash reads back intact afterwards, and the
recovered filesystem passes fsck.  Acknowledged content is tracked in a
dict-model oracle (path -> bytes) that :meth:`CrashHarness.check` reads
back after fsck and the persistence-slot check.  Crash points are
store-write indices counted from the moment the phase starts, so the
same (phase, index, seed) triple always tears the same write.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.blockdev.datapath import BlockIO, as_ref
from repro.core.highlight import HighLightConfig
from repro.core.replicas import ReplicaManager
from repro.core.stack import Testbed, make_farm, make_highlight, remount
from repro.errors import ReproError
from repro.faults.repair import RepairDaemon
from repro.lfs.check import CheckReport, check_filesystem, check_oracle
from repro.persist.format import check_persist_slots
from repro.persist.manager import PersistManager
from repro.util.units import KB, MB

#: The crash-point matrix: each phase arms the trap and then drives one
#: distinct pipeline through its writes.
PHASES = ("segwrite", "checkpoint", "migration", "repair")


class SimulatedCrash(ReproError):
    """The process model died at an armed crash point."""


class CrashTrap:
    """Counts writes across trapped stores; fires once when armed."""

    def __init__(self) -> None:
        self.countdown: Optional[int] = None
        self.tear_blocks = 0
        self.fired = False
        self.writes_seen = 0

    def arm(self, after_writes: int, tear_blocks: int = 0) -> None:
        """Crash on the write following ``after_writes`` complete ones,
        letting its first ``tear_blocks`` blocks reach the medium."""
        self.countdown = after_writes
        self.tear_blocks = tear_blocks
        self.fired = False

    def disarm(self) -> None:
        self.countdown = None

    def check(self) -> Optional[int]:
        """Called per store write: ``None`` to proceed, or the number of
        blocks to let through before the crash."""
        self.writes_seen += 1
        if self.countdown is None or self.fired:
            return None
        if self.countdown > 0:
            self.countdown -= 1
            return None
        self.fired = True
        return self.tear_blocks


class TrappedStore(BlockIO):
    """Delegating store wrapper that enforces a :class:`CrashTrap` on
    the one store write (the bytes verbs reach it as adapters)."""

    def __init__(self, inner, trap: CrashTrap) -> None:
        self.inner = inner
        self.trap = trap

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def writev(self, blkno, parts):
        keep = self.trap.check()
        if keep is not None:
            bs = self.inner.block_size
            data = b"".join(as_ref(p).view() for p in parts)
            if keep:
                self.inner.writev(blkno, [data[:keep * bs]])
            raise SimulatedCrash(
                f"crash point hit: write at block {blkno} tore after "
                f"{keep} of {len(data) // bs} blocks")
        self.inner.writev(blkno, parts)


def _unwrap(store):
    while isinstance(store, TrappedStore):
        store = store.inner
    return store


def snapshot_media(bed: Testbed) -> Dict[str, object]:
    """Freeze every medium's current contents (the post-crash state)."""
    return {
        "disks": [_unwrap(disk.store).snapshot() for disk in bed.disks],
        "volumes": {vid: _unwrap(vol.store).snapshot()
                    for vid, vol in bed.jukebox.volumes.items()},
    }


def restore_media(images: Dict[str, object], bed: Testbed) -> None:
    """Load snapshotted media into a freshly built device farm."""
    for disk, image in zip(bed.disks, images["disks"]):
        _unwrap(disk.store).restore(image)
    for vid, image in images["volumes"].items():
        _unwrap(bed.jukebox.volumes[vid].store).restore(image)


def payload(seed: int, nbytes: int) -> bytes:
    """Deterministic pseudo-random content (never ``os.urandom`` here:
    a replayed crash point must see identical bytes)."""
    return random.Random(seed).randbytes(nbytes)


class CrashHarness:
    """One crashable bed + oracle + trap, with scripted workload phases.

    ``copies`` > 1 attaches a :class:`ReplicaManager` with that many
    copies; every bed carries a :class:`PersistManager`.
    """

    def __init__(self, *, partition_bytes: int = 64 * MB,
                 n_platters: int = 3, platter_constraint: int = 24 * MB,
                 copies: int = 1,
                 config: Optional[HighLightConfig] = None) -> None:
        self.geometry = dict(partition_bytes=partition_bytes,
                             n_platters=n_platters,
                             platter_constraint=platter_constraint)
        self.copies = copies
        self.config = config or HighLightConfig()
        self.oracle: Dict[str, bytes] = {}
        self.trap = CrashTrap()
        self._adopt(make_highlight(**self.geometry, config=self.config))
        jukebox = self.bed.jukebox
        for dev in self.bed.disks + [jukebox.volumes[v]
                                     for v in sorted(jukebox.volumes)]:
            dev.store = TrappedStore(dev.store, self.trap)
        self.crashed = False
        self.report = None  # RecoveryReport after crash_and_recover()
        self._pending_arm = (0, 0)

    def _adopt(self, bed: Testbed) -> None:
        """Make ``bed`` the live stack and attach the optional layers."""
        self.bed, self.fs, self.app = bed, bed.fs, bed.app
        self.migrator = bed.migrator
        self.replicas = (ReplicaManager(bed.fs, copies=self.copies)
                         if self.copies > 1 else None)
        self.persist = PersistManager(bed.fs)

    # -- workload vocabulary ------------------------------------------------

    def commit(self, path: str, data: bytes) -> None:
        """Write + checkpoint; the bytes are acknowledged once this
        returns, so they enter the oracle only on success."""
        self.fs.write_path(path, data, actor=self.app)
        self.fs.checkpoint(self.app)
        self.oracle[path] = data

    def migrate(self, path: str) -> None:
        """Migrate ``path``, drain its copy-out, and checkpoint."""
        self.migrator.migrate_file(path)
        self.migrator.flush()
        self.fs.sched.pump(self.app)
        self.fs.checkpoint(self.app)

    def rot(self, seed: int, target: str = "primary") -> int:
        """Silent bit-rot: flip one seeded bit of the first segment a
        fresh bed migrates, straight on the medium — its primary copy,
        its first replica (``target="replica"``), or the disk image of
        the first sealed, non-staging cache line (``target="cache"``).
        The medium still reads fine and the CRC ledger never hears of
        it.  Returns the rotted volume id, or for a cache line its
        tertiary segment number."""
        fs = self.fs
        rng = random.Random(seed)
        bps = fs.sb.blocks_per_seg
        if target == "cache":
            rotted, disk_segno = next(
                (tsegno, disk_segno)
                for tsegno, disk_segno, staging in fs.cache.entries()
                if not staging)
            store = self.bed.disk.store
            blkno = fs.seg_base(disk_segno) + rng.randrange(bps)
        else:
            first = fs.aspace.tertiary_segno(0, 0)
            vol, seg_in_vol = (fs.replicas.catalog[first][0]
                               if target == "replica"
                               else fs.aspace.volume_of(first))
            rotted = fs.tsegfile.volumes[vol].volume_id
            store = self.bed.jukebox.volumes[rotted].store
            blkno = seg_in_vol * bps + rng.randrange(bps)
        raw = bytearray(store.read(blkno, 1))
        raw[rng.randrange(len(raw))] ^= 0x40
        store.write(blkno, bytes(raw))
        return rotted

    def run_phase(self, phase: str, after_writes: int,
                  tear_blocks: int = 0, seed: int = 1) -> bool:
        """Arm the trap, drive one phase, and report whether it fired.

        An index beyond the phase's write count simply never fires — the
        subsequent :meth:`crash_and_recover` then models a kill between
        operations rather than mid-write, which is equally legal.
        """
        driver = getattr(self, "_phase_" + phase)
        self._pending_arm = (after_writes, tear_blocks)
        if phase != "repair":  # repair arms itself after its setup writes
            self.trap.arm(after_writes, tear_blocks=tear_blocks)
        try:
            driver(seed)
        except SimulatedCrash:
            self.crashed = True
            return True
        finally:
            self.trap.disarm()
        return False

    def _phase_segwrite(self, seed: int) -> None:
        """Plain log writes: a large unacknowledged file mid-flight."""
        self.commit("/base.dat", payload(seed, 256 * KB))
        self.commit("/unacked.dat", payload(seed + 1, MB))

    def _phase_checkpoint(self, seed: int) -> None:
        """Crash inside checkpoint(): ifile flush, superblock slots, or
        the persistence image write itself."""
        self.commit("/pre.dat", payload(seed, 256 * KB))
        self.commit("/during.dat", payload(seed + 1, 128 * KB))

    def _phase_migration(self, seed: int) -> None:
        """Crash during stage + copy-out of a committed file."""
        self.commit("/mig.dat", payload(seed, 512 * KB))
        self.migrate("/mig.dat")

    def _phase_repair(self, seed: int) -> None:
        """Crash while the repair daemon re-homes a quarantined volume."""
        self.commit("/rep.dat", payload(seed, 512 * KB))
        self.migrate("/rep.dat")
        entries = self.persist.ledger.entries()
        if not entries:
            return
        victim = entries[0][0]  # volume_id of the first ledgered segment
        self.fs.health.quarantine(victim, self.app.time,
                                  reason="crash-harness")
        daemon = RepairDaemon(self.fs)
        self.trap.arm(*self._pending_arm)  # setup done: repair writes start
        daemon.run_once(self.app)
        self.fs.checkpoint(self.app)

    # -- crash / restart ----------------------------------------------------

    def restart(self) -> Testbed:
        """Kill the process model and mount a fresh farm of the same
        geometry over its media; nothing beyond the migrator is attached
        and nothing is recovered yet."""
        farm = make_farm(**self.geometry)
        restore_media(snapshot_media(self.bed), farm)
        return remount(farm, self.config)

    def crash_and_recover(self):
        """Kill the process model, restart from the media, recover."""
        self._adopt(self.restart())
        self.report = self.fs.recover()
        return self.report

    # -- the invariant ------------------------------------------------------

    def check(self) -> CheckReport:
        """fsck, then the persistence slots, then the oracle read-back."""
        report = check_filesystem(self.fs, self.app)
        check_persist_slots(self.fs, self.app, report)
        check_oracle(self.fs, self.app, self.oracle, report)
        return report

    def assert_acknowledged(self) -> None:
        """Every acknowledged byte reads back and fsck is clean."""
        report = self.check()
        assert report.ok, report.errors
