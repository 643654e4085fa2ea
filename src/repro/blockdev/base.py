"""Device fundamentals: statistics, the device ABC, CPU model."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from repro import obs
from repro.blockdev.datapath import BlockIO, ExtentRef, Part
from repro.blockdev.extent import ExtentStore
from repro.sim.actor import Actor


class DeviceStats:
    """The I/O series a device publishes about itself.

    Every :meth:`record` lands in the process-wide registry — per-device
    byte/op counters and a latency histogram — so one snapshot covers
    the whole farm.  The three series of an op are bound on its first
    I/O and kept.
    """

    def __init__(self, device: str = "") -> None:
        self.device = device
        self._series: Dict[str, tuple] = {}  # op -> (ops, bytes, seconds)

    def record(self, op: str, nbytes: int, seek_seconds: float = 0.0,
               transfer_seconds: float = 0.0) -> None:
        """Account one completed I/O (``op`` is ``"read"`` or ``"write"``)."""
        if self.device:
            ops, moved, seconds = self._series.get(op) or self._bind(op)
            ops.inc()
            moved.inc(nbytes)
            seconds.observe(seek_seconds + transfer_seconds)

    def _bind(self, op: str) -> tuple:
        series = self._series[op] = (
            obs.counter("device_io_ops_total",
                        "I/O operations completed per device",
                        ("device", "op")).labels(device=self.device, op=op),
            obs.counter("device_io_bytes_total",
                        "bytes transferred per device",
                        ("device", "op")).labels(device=self.device, op=op),
            obs.histogram("device_io_seconds",
                          "virtual seconds per I/O (positioning + transfer)",
                          ("device", "op")).labels(device=self.device, op=op))
        return series


class BlockDevice(BlockIO, ABC):
    """Abstract data-bearing, time-charging block device: one borrowed
    read and one gather write (the bytes verbs are
    :class:`~repro.blockdev.datapath.BlockIO` adapters)."""

    def __init__(self, name: str, capacity_blocks: int, block_size: int) -> None:
        self.name = name
        self.store = ExtentStore(capacity_blocks, block_size)
        self.stats = DeviceStats(device=name)

    @property
    def block_size(self) -> int:
        return self.store.block_size

    @property
    def capacity_blocks(self) -> int:
        return self.store.capacity_blocks

    @abstractmethod
    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        """Read blocks as borrowed ranges, charging virtual time to
        ``actor``."""

    @abstractmethod
    def writev(self, actor: Actor, blkno: int, parts: Sequence[Part]) -> None:
        """Gather-write parts at consecutive blocks as one device op,
        charging virtual time to ``actor``."""


class CPUModel:
    """The host CPU as a timing source for copies and per-block FS work.

    The paper attributes LFS's sequential-write deficit to "extra buffer
    copies performed inside the LFS code" on the HP 9000/370 (a 25 MHz
    68030), and FS code paths cost real time per block on that machine.
    ``copy_rate`` is the effective kernel memory-copy bandwidth;
    ``per_block_op`` is the FS/buffer-cache code path cost per 4 KB block.

    The CPU is deliberately *not* a shared TimelineResource: the paper's
    effects of interest are I/O contention, and modelling CPU contention
    would add noise without any figure to validate it against.
    """

    def __init__(self, copy_rate: float = 1.8 * 1024 * 1024,
                 per_block_op: float = 0.0008) -> None:
        self.copy_rate = copy_rate
        self.per_block_op = per_block_op

    def copy(self, actor: Actor, nbytes: int) -> float:
        """Charge a memory-to-memory copy of ``nbytes``; returns seconds."""
        seconds = nbytes / self.copy_rate
        actor.sleep(seconds)
        return seconds

    def block_ops(self, actor: Actor, nblocks: int) -> float:
        """Charge FS code-path time for touching ``nblocks`` blocks."""
        seconds = nblocks * self.per_block_op
        actor.sleep(seconds)
        return seconds

