"""The five workloads, all driven through the public ``Client`` API.

Every workload is a deterministic function of its seed: the file
population, which files are popular, and the request stream all come
from one ``random.Random``; the storage stack only ever sees the
generated requests.  Default configurations throughout — the only
knobs set are sizes (partition, ``ncachesegs``, tenant budgets).

A workload runs in *slices*, ``prefix_slices`` of them: the **exact
pass**, a fixed number of ops for a given seed from a fresh set-up.  The
driver repeats set-up and exact pass several times; since the simulator
is deterministic each repetition is the same work, with the same virtual
latencies, ``io_amp`` and counts bit for bit.  One *op* is ``open`` +
one ``read``|``write`` + ``close``.

Why each workload exists, and what it is sized against, is in its
``why`` string and in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
import zlib
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.bench import harness
from repro.blockdev import profiles
from repro.cluster import ClusterNode, ClusterRouter
from repro.core.daemon import AutoMigrationDaemon
from repro.core.highlight import HighLightConfig, HighLightFS
from repro.core.migrator import Migrator
from repro.core.policies import STPPolicy
from repro.errors import ReproError
from repro.frontend import TenantBudget, open_cluster, open_node
from repro.frontend import load as fe_load
from repro.lfs.check import check_filesystem
from repro.sim.actor import Actor

KB = 1024
MB = 1024 * KB

#: --quick divides the exact pass by this.
QUICK_DIVISOR = 20
#: Untimed warm-up (part of the set-up), as a share of the exact pass.
WARMUP_SHARE = 0.05


class Zipf:
    """Rank r drawn with weight 1/(r+1)^s; which item holds which rank is
    a seeded permutation, so popularity is not tied to creation order."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        self.cdf = list(accumulate(1.0 / (r + 1.0) ** s for r in range(n)))
        self.order = list(range(n))
        rng.shuffle(self.order)

    def pick(self, rng: random.Random) -> int:
        return self.order[bisect_left(self.cdf, rng.random() * self.cdf[-1])]


class Workload:
    """What the driver needs from a workload (see module docstring)."""

    name = ""
    why = ""
    #: Fixed user bytes moved per op.
    op_bytes = 0
    #: Length of the exact pass in slices at full size.
    prefix_slices = 1
    #: "closed" (one client, next request after the reply) or "open".
    loop = "closed"

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        if quick:
            self.prefix_slices = max(1, self.prefix_slices // QUICK_DIVISOR)
        self.failed = 0
        self.ops_done = 0
        #: Host ns and virtual s per op, in completion order.
        self.lat_ns: List[int] = []
        self.virt_s: List[float] = []
        #: Shared with the tracer: the op a span belongs to (-1 = none).
        self.op_cell = [-1]
        self._digest = hashlib.sha256()

    # -- the driver's surface -------------------------------------------------

    def build(self) -> None:
        """Bed, preload, migrate, cache drop, warm-up: everything before
        the first timed op."""
        raise NotImplementedError

    def run_slice(self) -> Tuple[int, int]:
        """Run the next slice; returns (host ns, ops completed)."""
        raise NotImplementedError

    def finish(self) -> Tuple[int, int]:
        """Post-run durability checks; returns (checks made, failed)."""
        return (0, 0)

    def digest(self) -> str:
        """Digest of the request stream generated so far."""
        return self._digest.hexdigest()[:16]

    def client_time(self) -> float:
        """Virtual seconds on the client side of the workload."""
        raise NotImplementedError

    def disk_names(self) -> set:
        raise NotImplementedError

    def stores(self) -> list:
        raise NotImplementedError

    def _note(self, *parts: object) -> None:
        self._digest.update(repr(parts).encode())


def _bed_stores(disks, jukebox) -> list:
    return [d.store for d in disks] + \
        [v.store for v in jukebox.volumes.values()]


class NodeWorkload(Workload):
    """Closed loop, one client actor, over one HighLight stack."""

    slice_ops = 1

    def build(self) -> None:
        self.bed = self._make_bed()
        self.client = open_node(self.bed)
        self.app = self.bed.app
        self._preload()
        warm = max(1, int(self.prefix_slices * self.slice_ops * WARMUP_SHARE))
        self._run_ops(warm)
        del self.lat_ns[:], self.virt_s[:]
        self.ops_done = 0

    def _make_bed(self):
        return harness.make_highlight()

    def _preload(self) -> None:
        raise NotImplementedError

    def _next_request(self) -> tuple:
        raise NotImplementedError

    def _op(self, req: tuple):
        raise NotImplementedError

    def _check(self, req: tuple, got) -> bool:
        raise NotImplementedError

    def _background(self) -> None:
        """Work that rides along after every slice, inside its time."""

    def _put_file(self, path: str, size: int) -> bytes:
        data = self.rng.randbytes(size)
        handle = self.client.open(self.app, path, create=True)
        self.client.write(self.app, handle, data, 0)
        self.client.close(self.app, handle)
        return data

    def _run_ops(self, count: int) -> int:
        reqs = [self._next_request() for _ in range(count)]
        clock, app, cell = time.perf_counter_ns, self.app, self.op_cell
        lat, virt = self.lat_ns, self.virt_s
        start = clock()
        for req in reqs:
            cell[0] = self.ops_done
            t0, v0 = clock(), app.time
            try:
                got = self._op(req)
            except ReproError:
                got = None
            lat.append(clock() - t0)
            virt.append(app.time - v0)
            self.ops_done += 1
            # Verified outside the op's own latency, inside the slice.
            if got is None or not self._check(req, got):
                self.failed += 1
        cell[0] = -1
        return clock() - start

    def run_slice(self) -> Tuple[int, int]:
        clock = time.perf_counter_ns
        host_ns = self._run_ops(self.slice_ops)
        t0 = clock()
        self._background()
        return host_ns + clock() - t0, self.slice_ops

    def client_time(self) -> float:
        return self.app.time

    def disk_names(self) -> set:
        return {d.name for d in self.bed.disks}

    def stores(self) -> list:
        return _bed_stores(self.bed.disks, self.bed.jukebox)


class _ReadWorkload(NodeWorkload):
    """Zipf reads at random offsets of static files, every one
    byte-verified."""

    file_bytes = 0
    zipf_s = 1.1
    #: Read offsets are multiples of this.
    offset_step = 0

    def _paths(self) -> List[str]:
        """The files to create (directories are made on the way)."""
        raise NotImplementedError

    def _settle(self) -> None:
        """Where the files should be when the reads start."""
        raise NotImplementedError

    def _preload(self) -> None:
        self.content: Dict[str, bytes] = {
            path: self._put_file(path, self.file_bytes)
            for path in self._paths()}
        self._settle()
        self.paths = list(self.content)
        self.zipf = Zipf(len(self.paths), self.zipf_s, self.rng)

    def _next_request(self) -> tuple:
        req = (self.paths[self.zipf.pick(self.rng)],
               self.rng.randrange(0, self.file_bytes - self.op_bytes + 1,
                                  self.offset_step))
        self._note(*req)
        return req

    def _op(self, req: tuple) -> bytes:
        path, offset = req
        handle = self.client.open(self.app, path)
        data = self.client.read(self.app, handle, offset, self.op_bytes)
        self.client.close(self.app, handle)
        return data

    def _check(self, req: tuple, got: bytes) -> bool:
        path, offset = req
        return got == self.content[path][offset:offset + self.op_bytes]


class ReadHot(_ReadWorkload):
    name = "read_hot"
    why = ("2 MB of 8 KB files three directories deep fits the 3.2 MB "
           "buffer cache: namespace, cache hits, obs and frontend do all "
           "the work and nothing below the buffer cache runs")
    op_bytes = 4 * KB
    slice_ops = 1000
    prefix_slices = 12
    file_bytes = 8 * KB
    #: Most reads straddle the file's two blocks.
    offset_step = 512

    def _paths(self) -> List[str]:
        fs = self.bed.fs
        fs.mkdir("/proj")
        for run in range(64):
            fs.mkdir(f"/proj/run{run:02d}")
            fs.mkdir(f"/proj/run{run:02d}/out")
        return [f"/proj/run{run:02d}/out/f{i:02d}.dat"
                for run in sorted(self.rng.sample(range(64), 4))
                for i in range(64)]

    def _settle(self) -> None:
        self.client.flush(self.app)


class ReadDisk(_ReadWorkload):
    name = "read_disk"
    why = ("64 MB of disk-resident 1 MB files is 20x the buffer cache: "
           "the same read API misses, bmaps, clusters, evicts and crosses "
           "block map, disk and extent store; tertiary stays idle")
    op_bytes = 64 * KB
    slice_ops = 500
    prefix_slices = 12
    file_bytes = MB
    zipf_s = 0.6
    offset_step = 64 * KB

    def _paths(self) -> List[str]:
        return [f"/data/d{i // 8}/f{i:02d}.bin" for i in range(64)]

    def _settle(self) -> None:
        self.client.flush(self.app)
        self.client.drop_caches(self.app)


class DemandCold(_ReadWorkload):
    name = "demand_cold"
    why = ("96 one-segment files all on tertiary, read through a segment "
           "cache a seventh that size: misses travel service, scheduler, "
           "I/O server, Footprint, robot swap and cache-line write")
    op_bytes = 64 * KB
    slice_ops = 500
    prefix_slices = 14
    #: One tertiary segment including its summary blocks.
    file_bytes = 896 * KB
    offset_step = 64 * KB
    #: Lands core.segcache.hit_ratio between 0.4 and 0.7 (see README).
    ncachesegs = 14

    def _make_bed(self):
        bed = harness.make_highlight(
            config=HighLightConfig(ncachesegs=self.ncachesegs))
        harness.preload_write_volume(bed)
        return bed

    def _paths(self) -> List[str]:
        return [f"/arch/y{i // 12:02d}/s{i:03d}.seg" for i in range(96)]

    def _settle(self) -> None:
        for path in self.content:
            self.client.migrate(self.app, path)
        self.client.flush(self.app)
        self.client.drop_caches(self.app)


class WriteChurn(NodeWorkload):
    name = "write_churn"
    why = ("random overwrites of 64 MB of files on a 64 MB partition "
           "under the automigration daemon: segment writer, cleaner, "
           "staging and write-out run for most of the window")
    op_bytes = 64 * KB
    #: One daemon tick per slice.  The client's first device access after
    #: a tick waits out the daemon's I/O (47-240 virtual s), so one op in
    #: 128 is that slow: clear of the 99th percentile, which then sits
    #: in the ~5% of ops that stall on a device for about 3.4 s.
    slice_ops = 128
    prefix_slices = 18
    n_files = 64
    target_bytes = 8 * MB

    def _make_bed(self):
        bed = harness.make_highlight(partition_bytes=64 * MB)
        harness.preload_write_volume(bed)
        self.daemon_actor = Actor("daemon")
        bed.migrator = Migrator(bed.fs, policy=STPPolicy(target_bytes=self.target_bytes),
                                actor=self.daemon_actor)
        self.daemon = AutoMigrationDaemon(bed.fs, bed.migrator,
                                          high_water=0.6, low_water=0.4)
        return bed

    def _background(self) -> None:
        # The daemon has its own actor; it wakes at the client's time.
        self.daemon_actor.sleep_until(self.app.time)
        self.daemon.tick(self.daemon_actor)

    def _preload(self) -> None:
        self.model: Dict[str, bytearray] = {}
        for i in range(self.n_files):
            path = f"/db/t{i // 8}/part{i:02d}.tbl"
            self.model[path] = bytearray(self._put_file(path, MB))
            if i % 4 == 3:
                # The files are as large as the disk: migrate as we go.
                self._background()
        self.paths = list(self.model)

    def _next_request(self) -> tuple:
        payload = self.rng.randbytes(self.op_bytes)
        req = (self.rng.choice(self.paths),
               self.rng.randrange(MB // self.op_bytes) * self.op_bytes,
               payload)
        self._note(req[0], req[1], zlib.crc32(payload))
        return req

    def _op(self, req: tuple) -> int:
        path, offset, payload = req
        handle = self.client.open(self.app, path)
        written = self.client.write(self.app, handle, payload, offset)
        self.client.close(self.app, handle)
        return written

    def _check(self, req: tuple, written: int) -> bool:
        path, offset, payload = req
        self.model[path][offset:offset + len(payload)] = payload
        return written == len(payload)

    def finish(self) -> Tuple[int, int]:
        """Checkpoint, remount from the devices alone, fsck, re-read."""
        self.client.flush(self.app)
        fs = HighLightFS.mount_highlight(
            self.bed.disks[0], self.bed.footprint, HighLightConfig(),
            profiles.make_cpu(), actor=Actor("remount"))
        report = check_filesystem(fs)
        bad = len(report.errors)
        client = open_node(fs)
        for path, expect in self.model.items():
            handle = client.open(fs.actor, path)
            if client.read(fs.actor, handle, 0, MB) != expect:
                bad += 1
            client.close(fs.actor, handle)
        return (1 + len(self.model), bad)


class TimingClient:
    """The ``Client`` verbs ``frontend.load.replay`` calls, timed.

    One request is ``open`` -> ``read``|``write`` -> ``close`` with no
    scheduling point in between, so one slot holds the start stamp.
    Reads are verified and writes recorded in the model after the clock
    stops.
    """

    def __init__(self, client, workload: "ClusterMixed") -> None:
        self.client = client
        self.wl = workload
        self._t0 = 0
        self._pending = None

    def open(self, actor, path, tenant=None, create=False):
        wl = self.wl
        wl.op_cell[0] = wl.ops_done
        self._t0 = time.perf_counter_ns()
        return self.client.open(actor, path, tenant=tenant, create=create)

    def read(self, actor, handle, offset=0, nbytes=-1):
        try:
            data = self.client.read(actor, handle, offset, nbytes)
        except ReproError:
            data = None
        self._pending = ("read", handle.path, offset, nbytes, data)
        return data or b""

    def write(self, actor, handle, data, offset=0):
        try:
            written = self.client.write(actor, handle, data, offset)
        except ReproError:
            written = -1
        self._pending = ("write", handle.path, offset, data, written)
        return written

    def close(self, actor, handle):
        self.client.close(actor, handle)
        wl = self.wl
        wl.lat_ns.append(time.perf_counter_ns() - self._t0)
        wl.ops_done += 1
        wl.op_cell[0] = -1
        op, path, offset, arg, result = self._pending
        if op == "read":
            if result is None or \
                    result != wl.model[path][offset:offset + arg]:
                wl.failed += 1
        else:
            wl.model[path][offset:offset + len(arg)] = arg
            # A sub-extent overwrite reports the whole rewritten object.
            if result < len(arg):
                wl.failed += 1


class ClusterMixed(Workload):
    name = "cluster_mixed"
    why = ("two budgeted tenants replayed open-loop on a 4-shard cluster: "
           "the only multi-actor run, where router join, hash ring, sim "
           "scheduler and token buckets carry weight")
    op_bytes = 64 * KB
    loop = "open"
    #: One slice is one epoch of Poisson arrivals in virtual time.
    epoch_seconds = 2400.0
    #: Aggregate arrival rate (requests per virtual second): a cold
    #: fetch holds a shard for 4-17 virtual seconds and about one
    #: request in twenty needs one, so this keeps every shard under a
    #: fifth busy and the backlog from growing.
    rate = 0.25
    prefix_slices = 20
    n_shards = 4
    n_clients = 10_000
    lanes = 4
    #: Per-shard segment cache: smaller than a shard's cold set, so
    #: demand fetches and ejections continue in steady state.
    ncachesegs = 2
    scratch_bytes = 128 * KB
    #: Placement is part of the workload, not of the seed: of ring seeds
    #: 0-11 this one spreads the Zipf read load most evenly over the
    #: four shards (0.21/0.31/0.17/0.31; cold files 3/6/4/3).
    ring_seed = 9

    def build(self) -> None:
        rng = self.rng
        nodes = [ClusterNode(i, config=HighLightConfig(
            ncachesegs=self.ncachesegs)) for i in range(self.n_shards)]
        self.router = ClusterRouter(nodes, seed=self.ring_seed)
        self.client = open_cluster(self.router)
        # Finite buckets.  Interactive asks for 11 KB/s on average and
        # may burst four requests; batch asks for 5 KB/s and gets one
        # request of burst, so a second batch write within two virtual
        # seconds (about one in seven) waits in admission.
        self.client.tenant("interactive", TenantBudget(
            rate_bytes_per_s=128 * KB, burst_bytes=256 * KB))
        self.client.tenant("batch", TenantBudget(
            qos_class="writeout", rate_bytes_per_s=32 * KB,
            burst_bytes=64 * KB))
        loader = self.loader = Actor("loader")
        self.model: Dict[str, bytearray] = {}
        files = [f"/home/u{i:02d}/doc.bin" for i in range(32)]
        scratch = [f"/scratch/job{i:02d}.tmp" for i in range(16)]
        for path, size in [(p, MB) for p in files] + \
                [(p, self.scratch_bytes) for p in scratch]:
            data = rng.randbytes(size)
            handle = self.client.open(loader, path, create=True)
            self.client.write(loader, handle, data, 0)
            self.client.close(loader, handle)
            self.model[path] = bytearray(data)
        # Popularity is rank order in ``files``: the unpopular half is
        # what an archive would have migrated.
        for path in files[len(files) // 2:]:
            self.client.migrate(loader, path)
        self.client.flush(loader)
        self.client.drop_caches(loader)
        self.mixes = (
            fe_load.TenantMix(tenant="interactive", share=0.7,
                              read_fraction=1.0, paths=tuple(files),
                              request_bytes=self.op_bytes),
            fe_load.TenantMix(tenant="batch", share=0.3,
                              read_fraction=0.0, paths=tuple(scratch),
                              request_bytes=self.op_bytes),
        )
        self.proxy = TimingClient(self.client, self)
        # The load phase leaves the shard timelines busy; start clear.
        self.start = max(self.router.makespan(), loader.time) + 60.0
        self.epoch = 0
        self.makespan = self.start
        self._run_epoch(self.epoch_seconds * WARMUP_SHARE
                        * self.prefix_slices)
        del self.lat_ns[:], self.virt_s[:]
        self.ops_done = 0

    def _requests(self, duration: float) -> List[fe_load.Request]:
        spec = fe_load.WorkloadSpec(
            seed=self.rng.getrandbits(48), mixes=self.mixes,
            n_clients=self.n_clients, duration=duration,
            mean_interarrival=self.n_clients / self.rate, zipf_s=1.1)
        out = []
        for req in fe_load.generate(spec):
            # The generator reads and writes at offset 0 only; spread
            # the requests over each file.
            size = len(self.model[req.path])
            offset = self.rng.randrange(size // req.nbytes) * req.nbytes
            out.append(dataclasses.replace(req, offset=offset))
            self._note(req.t, req.tenant, req.op, req.path, offset)
        return out

    def _run_epoch(self, duration: float) -> Tuple[int, int]:
        reqs = self._requests(duration)
        t0 = time.perf_counter_ns()
        result = fe_load.replay(self.proxy, reqs,
                                workers_per_tenant=self.lanes,
                                start=self.start)
        host_ns = time.perf_counter_ns() - t0
        for tenant in sorted(result.latencies):
            self.virt_s.extend(result.latencies[tenant])
        self.start += duration
        self.makespan = max(self.makespan, result.makespan)
        return host_ns, len(reqs)

    def run_slice(self) -> Tuple[int, int]:
        out = self._run_epoch(self.epoch_seconds)
        return out

    def finish(self) -> Tuple[int, int]:
        """Flush every shard, fsck every shard, re-read every file."""
        self.client.flush(self.loader)
        bad = 0
        nodes = [self.router.nodes[sid] for sid in sorted(self.router.nodes)]
        for node in nodes:
            bad += len(check_filesystem(node.fs).errors)
        for path, expect in self.model.items():
            handle = self.client.open(self.loader, path)
            if self.client.read(self.loader, handle, 0, len(expect)) != expect:
                bad += 1
            self.client.close(self.loader, handle)
        return (len(nodes) + len(self.model), bad)

    def client_time(self) -> float:
        return self.start

    def backlog_seconds(self) -> float:
        """How far the last completion ran past the arrival window."""
        return max(0.0, self.makespan - self.start)

    def disk_names(self) -> set:
        return {node.disk.name for node in self.router.nodes.values()}

    def stores(self) -> list:
        out = []
        for node in self.router.nodes.values():
            out += _bed_stores([node.disk], node.jukebox)
        return out


WORKLOADS = {cls.name: cls for cls in
             (ReadHot, ReadDisk, WriteChurn, DemandCold, ClusterMixed)}
