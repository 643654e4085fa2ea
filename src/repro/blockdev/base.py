"""Device fundamentals: data stores, statistics, the device ABC, CPU model."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from repro import obs
from repro.blockdev import datapath
from repro.blockdev.datapath import (Buffer, ExtentRef, count_copy,
                                     materialize_refs, ref_of)
from repro.errors import AddressError, InvalidArgument
from repro.sim.actor import Actor


class DataStore:
    """Common shape of the sparse data stores behind every device.

    Devices are data-bearing — file contents written through the stack must
    round-trip byte-for-byte through migration and demand fetch — but a
    848 MB partition is stored sparsely; unwritten blocks read back as
    zeros, like a freshly formatted medium.  Two implementations exist:
    the historical per-block :class:`BlockStore` (the ``"blockdict"``
    baseline) and the extent-run :class:`~repro.blockdev.extent
    .ExtentStore` (the default); :func:`make_store` picks by the active
    data-path mode.
    """

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        if capacity_blocks <= 0 or block_size <= 0:
            raise ValueError("capacity and block size must be positive")
        self.capacity_blocks = capacity_blocks
        self.block_size = block_size

    def check_range(self, blkno: int, nblocks: int) -> None:
        """Raise AddressError unless [blkno, blkno+nblocks) is on the store."""
        if nblocks <= 0:
            raise InvalidArgument(f"nblocks must be positive, got {nblocks}")
        if blkno < 0 or blkno + nblocks > self.capacity_blocks:
            raise AddressError(
                f"blocks [{blkno}, {blkno + nblocks}) outside device of "
                f"{self.capacity_blocks} blocks", blkno=blkno)

    def _check_aligned(self, nbytes: int) -> None:
        if nbytes % self.block_size != 0:
            raise InvalidArgument(
                f"write of {nbytes} bytes is not block-aligned "
                f"(block size {self.block_size})")

    # -- media imaging (crash simulation) ----------------------------------
    #
    # A "crash" in the simulator abandons every in-memory object; the only
    # state that survives is what reached the stores.  ``snapshot`` freezes
    # the written contents as an opaque image, ``restore`` loads such an
    # image into a (typically fresh) store of the same geometry — together
    # they model pulling the platters out of a dead machine and spinning
    # them up in a new one.

    def snapshot(self) -> object:
        """Freeze the written contents as an opaque, immutable image."""
        raise NotImplementedError

    def restore(self, image: object) -> None:
        """Replace this store's contents with a snapshotted image."""
        raise NotImplementedError


class BlockStore(DataStore):
    """Sparse per-block data store: block number -> block bytes.

    This is the ``"blockdict"`` baseline of the data-path A/B: simple,
    but every multi-block transfer costs a join on read and a per-block
    slice on write.  Those host copies are accounted through
    :func:`~repro.blockdev.datapath.count_copy` so the perf harness can
    compare modes honestly.
    """

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        super().__init__(capacity_blocks, block_size)
        self._blocks: Dict[int, bytes] = {}
        self._zero = bytes(block_size)

    def read(self, blkno: int, nblocks: int) -> bytes:
        """Return ``nblocks`` blocks starting at ``blkno``."""
        self.check_range(blkno, nblocks)
        if nblocks == 1:
            return self._blocks.get(blkno, self._zero)
        count_copy(nblocks * self.block_size)
        parts = [self._blocks.get(blkno + i, self._zero)
                 for i in range(nblocks)]
        return b"".join(parts)

    def write(self, blkno: int, data: Buffer) -> None:
        """Write ``data`` (a whole number of blocks) starting at ``blkno``.

        Accepts ``bytes | bytearray | memoryview``; a single-block
        immutable ``bytes`` write is stored by reference with no copy.
        """
        nbytes = len(data)
        self._check_aligned(nbytes)
        nblocks = nbytes // self.block_size
        self.check_range(blkno, nblocks)
        if nblocks == 1 and isinstance(data, bytes):
            self._blocks[blkno] = data
            return
        bs = self.block_size
        count_copy(nbytes)
        if isinstance(data, bytes):
            for i in range(nblocks):
                self._blocks[blkno + i] = data[i * bs:(i + 1) * bs]
        else:
            view = memoryview(data)
            for i in range(nblocks):
                self._blocks[blkno + i] = bytes(view[i * bs:(i + 1) * bs])

    def is_written(self, blkno: int) -> bool:
        """True if ``blkno`` has ever been written."""
        return blkno in self._blocks

    def written_in_range(self, blkno: int, nblocks: int) -> int:
        """How many blocks of [blkno, blkno+nblocks) have been written."""
        return sum(1 for i in range(nblocks) if blkno + i in self._blocks)

    def discard(self, blkno: int, nblocks: int = 1) -> None:
        """Forget blocks (used by tests and by WORM 'blank check')."""
        for i in range(nblocks):
            self._blocks.pop(blkno + i, None)

    def written_blocks(self) -> int:
        """Number of distinct blocks ever written (space accounting)."""
        return len(self._blocks)

    # -- vectored API (baseline: emulated over scalar read/write) ----------

    def read_refs(self, blkno: int, nblocks: int) -> List[ExtentRef]:
        """One ref over a joined copy (the baseline has no shared runs)."""
        return [ref_of(self.read(blkno, nblocks))]

    def write_refs(self, blkno: int, refs: Sequence[ExtentRef]) -> None:
        self.write(blkno, materialize_refs(refs))

    def readv(self, blkno: int, nblocks: int) -> List[memoryview]:
        return [memoryview(self.read(blkno, nblocks))]

    def writev(self, blkno: int, parts: Sequence[Buffer]) -> None:
        cursor = blkno
        for part in parts:
            if not len(part):
                continue
            self.write(cursor, part)
            cursor += len(part) // self.block_size

    # -- media imaging ------------------------------------------------------

    def snapshot(self) -> object:
        # Block payloads are immutable bytes, so a dict copy is a deep
        # image: later writes rebind entries, never mutate them.
        return dict(self._blocks)

    def restore(self, image: object) -> None:
        if not isinstance(image, dict):
            raise InvalidArgument("not a BlockStore image")
        self._blocks = dict(image)


def make_store(capacity_blocks: int, block_size: int) -> DataStore:
    """Build a data store per the active data-path mode."""
    if datapath.store_mode() == datapath.MODE_BLOCKDICT:
        return BlockStore(capacity_blocks, block_size)
    from repro.blockdev.extent import ExtentStore
    return ExtentStore(capacity_blocks, block_size)


class DeviceStats:
    """I/O accounting a device keeps about itself.

    Per-op totals live on the instance (cheap, always available); when
    the stats object carries a device name, every :meth:`record` also
    publishes to the process-wide registry — per-device byte/op counters
    and a latency histogram — so one snapshot covers the whole farm.
    The three series of an op are bound on its first I/O and kept.
    """

    def __init__(self, device: str = "") -> None:
        self.device = device
        self._series: Dict[str, tuple] = {}  # op -> (ops, bytes, seconds)
        self.read_ops = 0
        self.write_ops = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.seek_seconds = 0.0
        self.transfer_seconds = 0.0

    def record(self, op: str, nbytes: int, seek_seconds: float = 0.0,
               transfer_seconds: float = 0.0) -> None:
        """Account one completed I/O (``op`` is ``"read"`` or ``"write"``)."""
        if op == "read":
            self.read_ops += 1
            self.bytes_read += nbytes
        else:
            self.write_ops += 1
            self.bytes_written += nbytes
        self.seek_seconds += seek_seconds
        self.transfer_seconds += transfer_seconds
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

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, for reports."""
        return {
            "read_ops": self.read_ops,
            "write_ops": self.write_ops,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "seek_seconds": self.seek_seconds,
            "transfer_seconds": self.transfer_seconds,
        }

    def reset(self) -> None:
        self.__init__(self.device)


class BlockDevice(ABC):
    """Abstract data-bearing, time-charging block device."""

    def __init__(self, name: str, capacity_blocks: int, block_size: int) -> None:
        self.name = name
        self.store = make_store(capacity_blocks, block_size)
        self.stats = DeviceStats(device=name)

    @property
    def block_size(self) -> int:
        return self.store.block_size

    @property
    def capacity_blocks(self) -> int:
        return self.store.capacity_blocks

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_blocks * self.block_size

    @abstractmethod
    def read(self, actor: Actor, blkno: int, nblocks: int) -> bytes:
        """Read blocks, charging virtual time to ``actor``."""

    @abstractmethod
    def write(self, actor: Actor, blkno: int, data: Buffer) -> None:
        """Write blocks, charging virtual time to ``actor``."""

    # -- vectored / zero-copy ops ------------------------------------------
    #
    # Defaults wrap the scalar ops so any device subclass keeps working;
    # concrete devices override with store-native versions whose timing
    # charges are identical to read/write of the same size.

    def read_refs(self, actor: Actor, blkno: int,
                  nblocks: int) -> List[ExtentRef]:
        """Read blocks as borrowed ranges (same timing as :meth:`read`)."""
        return [ref_of(self.read(actor, blkno, nblocks))]

    def write_refs(self, actor: Actor, blkno: int,
                   refs: Sequence[ExtentRef]) -> None:
        """Write borrowed ranges (same timing as :meth:`write`); the
        caller must not mutate the ranges afterwards."""
        self.write(actor, blkno, materialize_refs(refs))

    def writev(self, actor: Actor, blkno: int,
               parts: Sequence[Buffer]) -> None:
        """Gather-write a list of buffers as one device op."""
        self.write_refs(actor, blkno,
                        [ref_of(p) for p in parts if len(p)])

    def read_segment_image(self, actor: Actor, blkno: int,
                           nblocks: int) -> bytes:
        """One-shot contiguous image read (a whole segment, typically)."""
        return materialize_refs(self.read_refs(actor, blkno, nblocks))

    def write_segment_image(self, actor: Actor, blkno: int,
                            image: Buffer) -> None:
        """One-shot contiguous image write (a whole segment, typically)."""
        self.write(actor, blkno, image)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"{self.capacity_blocks} x {self.block_size}B)")


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


class FreeCPU(CPUModel):
    """A zero-cost CPU, for tests that only care about data movement."""

    def __init__(self) -> None:
        super().__init__(copy_rate=float("inf"), per_block_op=0.0)

    def copy(self, actor: Actor, nbytes: int) -> float:
        return 0.0

    def block_ops(self, actor: Actor, nblocks: int) -> float:
        return 0.0
