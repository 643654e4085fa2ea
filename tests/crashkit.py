"""CrashHarness: the crash-point test kit for the persistence subsystem.

The harness builds a persistence-enabled HighLight bed whose device
stores are all wrapped by one :class:`~repro.persist.crashsim.CrashTrap`,
runs a scripted workload phase with the trap armed at a seeded store
write, then simulates process death: media images are snapshotted, a
fresh device farm is built over them, and the filesystem is remounted
and ``recover()``-ed.

The invariant under test is the **acknowledged-write contract**: every
byte whose ``checkpoint()`` returned before the crash must read back
intact afterwards, and the recovered filesystem must pass fsck.  The
harness tracks acknowledged content in a dict-model oracle
(path -> bytes) and hands it to ``check_filesystem``.

Crash points are enumerated per phase as store-write indices counted
from the moment the phase starts; the same (phase, index, seed) triple
always tears the same write, so failures replay exactly.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.blockdev import profiles
from repro.blockdev.bus import SCSIBus
from repro.core.highlight import HighLightConfig, HighLightFS
from repro.core.migrator import Migrator
from repro.core.replicas import ReplicaManager
from repro.faults.repair import RepairDaemon
from repro.footprint.robot import JukeboxFootprint
from repro.lfs.check import CheckReport, check_filesystem
from repro.persist import PersistManager
from repro.persist.crashsim import (CrashTrap, SimulatedCrash, install_trap,
                                    restart_highlight, snapshot_media)
from repro.sim.actor import Actor
from repro.util.units import KB, MB

#: The crash-point matrix: each phase arms the trap and then drives one
#: distinct pipeline through its writes.
PHASES = ("segwrite", "checkpoint", "migration", "repair")


def payload(seed: int, nbytes: int) -> bytes:
    """Deterministic pseudo-random content (never ``os.urandom`` here:
    a replayed crash point must see identical bytes)."""
    return random.Random(seed).randbytes(nbytes)


class CrashHarness:
    """One crashable bed + oracle + trap, with scripted workload phases."""

    def __init__(self, *, disk_bytes: int = 64 * MB, n_platters: int = 3,
                 platter_bytes: int = 24 * MB, copies: int = 1,
                 config: Optional[HighLightConfig] = None) -> None:
        self.disk_bytes = disk_bytes
        self.n_platters = n_platters
        self.platter_bytes = platter_bytes
        self.copies = copies
        self.config = config or HighLightConfig()
        self.bus = SCSIBus()
        self.disk = profiles.make_disk(profiles.RZ57, bus=self.bus,
                                       capacity_bytes=disk_bytes)
        self.jukebox = profiles.make_hp6300(
            n_platters=n_platters, bus=self.bus,
            effective_platter_bytes=platter_bytes)
        self.footprint = JukeboxFootprint(self.jukebox)
        self.app = Actor("app")
        self.fs = HighLightFS.mkfs_highlight(
            self.disk, self.footprint, self.config, actor=self.app)
        self.replicas = (ReplicaManager(self.fs, copies=copies)
                         if copies > 1 else None)
        self.persist = PersistManager(self.fs)
        self.migrator = Migrator(self.fs)
        self.oracle: Dict[str, bytes] = {}
        self.trap = CrashTrap()
        install_trap([self.disk] + [self.jukebox.volumes[v]
                                    for v in sorted(self.jukebox.volumes)],
                     self.trap)
        self.crashed = False
        self.report = None  # RecoveryReport after crash_and_recover()
        self._pending_arm = (0, 0)

    # -- workload vocabulary ------------------------------------------------

    def commit(self, path: str, data: bytes) -> None:
        """Write + checkpoint; the bytes are acknowledged once this
        returns, so they enter the oracle only on success."""
        self.fs.write_path(path, data, actor=self.app)
        self.fs.checkpoint(self.app)
        self.oracle[path] = data

    def arm(self, after_writes: int, tear_blocks: int = 0) -> None:
        self.trap.arm(after_writes, tear_blocks=tear_blocks)

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
            self.arm(after_writes, tear_blocks=tear_blocks)
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
        self.fs.write_path("/unacked.dat", payload(seed + 1, MB),
                           actor=self.app)
        self.fs.checkpoint(self.app)
        self.oracle["/unacked.dat"] = payload(seed + 1, MB)

    def _phase_checkpoint(self, seed: int) -> None:
        """Crash inside checkpoint(): ifile flush, superblock slots, or
        the persistence image write itself."""
        self.commit("/pre.dat", payload(seed, 256 * KB))
        self.fs.write_path("/during.dat", payload(seed + 1, 128 * KB),
                           actor=self.app)
        self.fs.checkpoint(self.app)
        self.oracle["/during.dat"] = payload(seed + 1, 128 * KB)

    def _phase_migration(self, seed: int) -> None:
        """Crash during stage + copy-out of a committed file."""
        self.commit("/mig.dat", payload(seed, 512 * KB))
        self.migrator.migrate_file("/mig.dat")
        self.migrator.flush()
        self.fs.sched.pump(self.app)
        self.fs.checkpoint(self.app)

    def _phase_repair(self, seed: int) -> None:
        """Crash while the repair daemon re-homes a quarantined volume."""
        self.commit("/rep.dat", payload(seed, 512 * KB))
        self.migrator.migrate_file("/rep.dat")
        self.migrator.flush()
        self.fs.sched.pump(self.app)
        self.fs.checkpoint(self.app)
        entries = self.persist.ledger.entries()
        if not entries:
            return
        victim = entries[0][0]  # volume_id of the first ledgered segment
        self.persist.health.quarantine(victim, self.app.time,
                                       reason="crash-harness")
        daemon = RepairDaemon(self.fs, self.persist.health)
        self.arm(*self._pending_arm)  # setup done: the repair writes start
        daemon.run_once(self.app)
        self.fs.checkpoint(self.app)

    # -- crash / restart ----------------------------------------------------

    def crash_and_recover(self):
        """Kill the process model, restart from the media, recover."""
        images = snapshot_media(self.disk, self.jukebox)
        fs, disk, jukebox, footprint = restart_highlight(
            images, disk_bytes=self.disk_bytes, n_platters=self.n_platters,
            platter_bytes=self.platter_bytes, config=self.config)
        self.fs, self.disk, self.jukebox = fs, disk, jukebox
        self.footprint = footprint
        self.app = fs.actor
        self.replicas = (ReplicaManager(fs, copies=self.copies)
                         if self.copies > 1 else None)
        self.persist = PersistManager(fs)
        self.migrator = Migrator(fs)
        self.report = fs.recover()
        return self.report

    # -- the invariant ------------------------------------------------------

    def check(self) -> CheckReport:
        return check_filesystem(self.fs, self.app, oracle=self.oracle)

    def assert_acknowledged(self) -> None:
        """Every acknowledged byte reads back and fsck is clean."""
        report = self.check()
        assert report.ok, report.render()
