"""The one table the traced pass reads: layer -> boundary callables.

Each entry is ``"module:Class.method"`` or ``"module:function"``.  The
tracer (:mod:`tracer`) resolves every name at run time and patches the
class or module attribute from outside ``src/``; a name that no longer
resolves is left out with a printed warning — its layer's metrics then
cover only the names that remain — and never touches the untraced run.
Generator functions (the ``*_steps`` forms the write-out path runs
through) are timed per resume.

Layer names are the repo's module names.  Every instant of an op lies
under an outermost ``frontend`` span, so the self times of all layers
plus ``other`` (driver loop, verify, anything unwrapped outside a span)
sum to the time of the traced ops.
"""

LAYERS = {
    "frontend": [
        "repro.frontend.session:Client.open",
        "repro.frontend.session:Client.read",
        "repro.frontend.session:Client.write",
        "repro.frontend.session:Client.close",
        "repro.frontend.session:Client.migrate",
        "repro.frontend.backends:NodeBackend.exists",
        "repro.frontend.backends:NodeBackend.size_of",
        "repro.frontend.backends:NodeBackend.create",
        "repro.frontend.backends:NodeBackend.read",
        "repro.frontend.backends:NodeBackend.write",
        "repro.frontend.backends:ClusterBackend.exists",
        "repro.frontend.backends:ClusterBackend.size_of",
        "repro.frontend.backends:ClusterBackend.create",
        "repro.frontend.backends:ClusterBackend.read",
        "repro.frontend.backends:ClusterBackend.write",
    ],
    "cluster": [
        "repro.cluster.router:ClusterRouter.read_path",
        "repro.cluster.router:ClusterRouter.write_path",
        "repro.cluster.router:ClusterRouter.size_of",
        "repro.cluster.node:ClusterNode.read_object",
        "repro.cluster.node:ClusterNode.write_object",
        "repro.cluster.node:ClusterNode.migrate_object",
    ],
    "lfs.namespace": [
        "repro.lfs.filesystem:LFS.lookup",
        "repro.lfs.filesystem:LFS.stat",
        "repro.lfs.filesystem:LFS.create",
        "repro.lfs.filesystem:LFS.mkdir",
        "repro.lfs.filesystem:LFS.get_inode",
        "repro.lfs.directory:Directory.parse",
    ],
    "lfs.data": [
        "repro.lfs.filesystem:LFS.read",
        "repro.lfs.filesystem:LFS.write",
        "repro.lfs.filesystem:LFS.bmap",
        "repro.lfs.filesystem:LFS.set_bmap",
    ],
    "lfs.buffercache": [
        "repro.lfs.buffercache:BufferCache.get",
        "repro.lfs.buffercache:BufferCache.peek",
        "repro.lfs.buffercache:BufferCache.put",
        "repro.lfs.buffercache:BufferCache.mark_clean",
        "repro.lfs.buffercache:BufferCache.invalidate",
        "repro.lfs.buffercache:BufferCache.invalidate_inode",
    ],
    "lfs.segwriter": [
        "repro.lfs.segwriter:SegmentWriter.flush",
        "repro.lfs.filesystem:LFS.sync",
        "repro.lfs.filesystem:LFS.checkpoint",
    ],
    "lfs.cleaner": [
        "repro.lfs.cleaner:Cleaner.clean_pass",
        "repro.lfs.cleaner:Cleaner.clean_segment",
    ],
    "core.blockmap": [
        "repro.core.addressing:BlockMapDriver.read",
        "repro.core.addressing:BlockMapDriver.read_refs",
        "repro.core.addressing:BlockMapDriver.write",
        "repro.core.addressing:BlockMapDriver.writev",
    ],
    "core.segcache": [
        "repro.core.segcache:SegmentCache.lookup",
        "repro.core.segcache:SegmentCache.register",
        "repro.core.segcache:SegmentCache.eject",
        "repro.core.segcache:SegmentCache.acquire_line",
    ],
    "core.service": [
        "repro.core.service:ServiceProcess.demand_fetch",
        "repro.core.service:ServiceProcess.writeout_line",
        "repro.core.service:ServiceProcess.writeout_line_steps",
        "repro.core.service:ServiceProcess.eject",
        "repro.core.service:ServiceProcess.flush_cache",
    ],
    "core.ioserver": [
        "repro.core.ioserver:IOServer.fetch",
        "repro.core.ioserver:IOServer.writeout",
        "repro.core.ioserver:IOServer.writeout_steps",
    ],
    "core.migrator": [
        "repro.core.migrator:Migrator.migrate_file",
        "repro.core.migrator:Migrator.migrate_file_steps",
        "repro.core.migrator:Migrator.run_once",
        "repro.core.migrator:Migrator.flush",
        "repro.core.staging:StagingBuilder.add_block_views",
        "repro.core.staging:StagingBuilder.spill",
        "repro.core.staging:StagingBuilder.finalize",
        "repro.core.daemon:AutoMigrationDaemon.tick",
    ],
    "sched": [
        "repro.sched.scheduler:TertiaryScheduler.fetch",
        "repro.sched.scheduler:TertiaryScheduler.submit_prefetch",
        "repro.sched.scheduler:TertiaryScheduler.submit_writeout",
        "repro.sched.scheduler:TertiaryScheduler.writeout_steps",
        "repro.sched.scheduler:TertiaryScheduler.pump",
    ],
    "footprint": [
        "repro.footprint.robot:JukeboxFootprint.read",
        "repro.footprint.robot:JukeboxFootprint.write",
        "repro.footprint.robot:JukeboxFootprint.read_refs",
        "repro.footprint.robot:JukeboxFootprint.write_refs",
    ],
    "blockdev.disk": [
        "repro.blockdev.disk:DiskDevice.read",
        "repro.blockdev.disk:DiskDevice.write",
        "repro.blockdev.disk:DiskDevice.read_refs",
        "repro.blockdev.disk:DiskDevice.write_refs",
        "repro.blockdev.disk:DiskDevice.writev",
    ],
    "blockdev.jukebox": [
        "repro.blockdev.jukebox:Jukebox.load",
        "repro.blockdev.jukebox:Jukebox.read",
        "repro.blockdev.jukebox:Jukebox.write",
        "repro.blockdev.jukebox:Jukebox.read_refs",
        "repro.blockdev.jukebox:Jukebox.write_refs",
    ],
    "blockdev.store": [
        "repro.blockdev.extent:ExtentStore.read",
        "repro.blockdev.extent:ExtentStore.read_refs",
        "repro.blockdev.extent:ExtentStore.write",
        "repro.blockdev.extent:ExtentStore.write_refs",
        "repro.blockdev.extent:ExtentStore.writev",
    ],
    "sim": [
        "repro.sim.scheduler:Scheduler.run",
        "repro.sim.actor:Actor.sleep",
        "repro.sim.actor:Actor.sleep_until",
        "repro.sim.resources:TimelineResource.occupy",
    ],
    # The module-level helpers only look the family up; the label
    # resolution and the record call run on what they return, so those
    # are boundary callables of the same layer.
    "obs": [
        "repro.obs:counter",
        "repro.obs:gauge",
        "repro.obs:histogram",
        "repro.obs:event",
        "repro.obs.registry:MetricFamily.labels",
        "repro.obs.registry:MetricFamily.inc",
        "repro.obs.registry:MetricFamily.set",
        "repro.obs.registry:MetricFamily.observe",
        "repro.obs.registry:Counter.inc",
        "repro.obs.registry:Gauge.set",
        "repro.obs.registry:Histogram.observe",
    ],
}

#: Layers whose wall-clock *busy* time is reported (background work):
#: time under a span of one of these is charged to the innermost such
#: span, so the busy times of the group never double count (a daemon
#: tick that runs the cleaner charges the cleaner, not the migrator).
BUSY_LAYERS = ("lfs.cleaner", "core.migrator")

#: The layer whose outermost spans are the ops: an op's host latency is
#: measured around exactly these, so the spans under them are the spans
#: whose cost the traced ops' extra latency pays for.
OP_LAYER = "frontend"

#: Everything outside any span: the driver loop, request payload
#: construction, byte-verification.
OTHER = "other"

#: Callables a specific metric is computed from (calls or inclusive
#: time over the traced ops); missing ones drop only that metric.
LOOKUP = "repro.lfs.filesystem:LFS.lookup"
DIR_PARSE = "repro.lfs.directory:Directory.parse"
CACHE_GET = "repro.lfs.buffercache:BufferCache.get"
CACHE_PUT = "repro.lfs.buffercache:BufferCache.put"
SEG_FLUSH = "repro.lfs.segwriter:SegmentWriter.flush"
DEMAND_FETCH = "repro.core.service:ServiceProcess.demand_fetch"
STAGE_FINALIZE = "repro.core.staging:StagingBuilder.finalize"
