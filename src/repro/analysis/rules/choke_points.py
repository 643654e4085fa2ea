"""HL002, HL007, HL014, HL015: the sanctioned doorways stay the only ones.

The paper names a few doorways every transfer must pass: the block-map
pseudo-driver (§6.3), the Footprint interface (§6.5) and the I/O
server's raw access to the cache disk (§6.7).  This reproduction adds
two more: the request scheduler in front of the I/O server, and the
Client session in front of the whole stack (with the cluster router in
front of every shard).  Each doorway is where the virtual clock is
charged, addresses are checked, requests are classed and tenants are
accounted; a call that walks around it moves the same bytes with none
of that.

All four checks have one shape — *verb V called on a receiver matching
R, outside modules M* — so they are one :class:`ChokePointRule` over
the four-row :data:`CHOKE_POINTS` table.  Attribute *reads* are never
flagged (``ioserver.account``, ``node.fs.stats``): only calls move
data.  Each row's receiver matcher is one of three shapes:

* the receiver's terminal name is in a set (``fs.disk.read``, HL002;
  ``fs.ioserver.fetch``, HL007);
* a stack attribute is read off a shard handle anywhere in the chain
  (``node.fs.read_path``, ``nodes[i].disk.write``, HL014);
* any link of the chain names a filesystem handle (``bed.fs.read_path``,
  HL015).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import terminal_attr


@dataclass(frozen=True)
class ChokePoint:
    """One doorway: which calls must pass it, and who may skip it."""

    code: str
    name: str
    rationale: str
    verbs: FrozenSet[str]
    #: True when a call's receiver expression denotes the guarded object.
    receiver: Callable[[ast.AST], bool]
    exempt: Tuple[str, ...]
    #: What the flagged call is, and where it should go instead.
    what: str
    advice: str


def _chain(node: ast.AST) -> Iterator[ast.AST]:
    """The links of a receiver chain, outermost first, stepping through
    subscripts: ``router.nodes[2].fs`` -> ``.fs``, ``.nodes``, ``router``."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
            continue
        yield node
        if not isinstance(node, ast.Attribute):
            return
        node = node.value


def _terminal_in(names: FrozenSet[str]) -> Callable[[ast.AST], bool]:
    return lambda receiver: terminal_attr(receiver) in names


def _any_link_in(names: FrozenSet[str]) -> Callable[[ast.AST], bool]:
    return lambda receiver: any(terminal_attr(link) in names
                                for link in _chain(receiver))


#: Attributes that denote a shard's private stack.
_STACK_ATTRS = frozenset({"fs", "disk", "store", "jukebox", "footprint",
                          "ioserver", "migrator", "service"})

#: Terminal names that denote a shard handle, and collections whose
#: subscripts do (``nodes[i]``).
_SHARD_NAMES = frozenset({"node", "shard", "victim", "peer", "src", "dst",
                          "src_node", "dst_node", "shard_node"})
_SHARD_COLLECTIONS = frozenset({"nodes", "shards"})


def _is_shard_handle(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        return terminal_attr(node.value) in _SHARD_COLLECTIONS
    return terminal_attr(node) in _SHARD_NAMES


def _shard_stack(receiver: ast.AST) -> bool:
    return any(isinstance(link, ast.Attribute)
               and link.attr in _STACK_ATTRS
               and _is_shard_handle(link.value)
               for link in _chain(receiver))


DEVICE_IO = ChokePoint(
    code="HL002",
    name="device-io-discipline",
    rationale=("raw device I/O outside the block map / line-I/O choke "
               "points escapes virtual-clock charging and address "
               "checking"),
    # The two verbs every layer implements and the bytes adapters.
    verbs=frozenset({"read_refs", "writev", "read", "write", "write_refs"}),
    receiver=_terminal_in(frozenset({"disk", "device", "dev", "tape",
                                     "drive"})),
    # The devices; the block-map driver and line-I/O helpers; the log
    # append and dev_* choke points; the FFS baseline (no block map by
    # design); the Footprint layer.
    exempt=("repro.blockdev", "repro.core.addressing",
            "repro.lfs.segwriter", "repro.lfs.filesystem", "repro.ffs",
            "repro.footprint"),
    what="direct device I/O",
    advice=("route through the block map or the line_read_refs/"
            "line_writev helpers in repro.core.addressing"),
)

SCHED_SUBMISSION = ChokePoint(
    code="HL007",
    name="scheduler-submission-discipline",
    rationale=("tertiary I/O issued around the request scheduler "
               "escapes class priority, mount batching, admission "
               "control, and queuing-time accounting"),
    verbs=frozenset({"fetch", "writeout", "writeout_steps",
                     "read_segment_image"}),
    receiver=_terminal_in(frozenset({"ioserver", "io_server"})),
    exempt=("repro.sched",),
    what="direct I/O-server submission",
    advice="submit through the repro.sched.TertiaryScheduler facade instead",
)

CLUSTER_LOCALITY = ChokePoint(
    code="HL014",
    name="cluster-shard-locality",
    rationale=("data I/O issued directly against a foreign shard's "
               "stack bypasses the router's placement catalog, routing "
               "metrics, and conservative timeline join"),
    # Calls that move or destroy shard-owned bytes; the object surface
    # (node.write_object...) and introspection stay open.
    verbs=frozenset({
        "read", "write", "read_refs", "write_refs", "writev",
        "read_path", "write_path", "unlink", "mkdir",
        "fetch", "writeout", "writeout_steps", "read_segment_image",
        "demand_fetch", "load", "eject",
        "migrate_file", "migrate_file_steps", "flush",
    }),
    receiver=_shard_stack,
    exempt=("repro.cluster.router",),
    what="foreign-shard data I/O",
    advice=("route through ClusterRouter (or the shard's object surface) "
            "instead"),
)

FRONTEND = ChokePoint(
    code="HL015",
    name="frontend-discipline",
    rationale=("raw fs path I/O bypasses tenant attribution, "
               "token-bucket admission, and the frontend_* SLO "
               "accounting; data-plane requests enter through a "
               "Client session"),
    verbs=frozenset({"read_path", "write_path"}),
    receiver=_any_link_in(frozenset({"fs"})),
    exempt=(
        # The stack that implements the path API, and the machinery
        # below sessions.
        "repro.core", "repro.lfs", "repro.ffs", "repro.persist",
        "repro.faults",
        # Shards store extent objects through their private fs; the
        # router is the cluster's internal data plane (HL014's).
        "repro.cluster",
        # Raw-filesystem workload drivers and the frontend's own
        # backend adapters (the sanctioned Client -> fs translation).
        "repro.workloads", "repro.frontend.backends",
        # Pre-tenancy benches measure the bare stack on purpose;
        # repro.bench.frontend_scenario is deliberately not here.
        "repro.bench.harness", "repro.bench.tables", "repro.bench.figures",
        "repro.bench.policy_eval", "repro.bench.scenarios",
        "repro.bench.cluster_scenario",
        # Rule modules quote the patterns they look for.
        "repro.analysis",
    ),
    what="raw data-plane I/O",
    advice=("open a session through the Client API "
            "(repro.open_node / repro.open_cluster) instead"),
)

CHOKE_POINTS = (DEVICE_IO, SCHED_SUBMISSION, CLUSTER_LOCALITY, FRONTEND)


class ChokePointRule(Rule):
    """One row of :data:`CHOKE_POINTS` as a rule."""

    def __init__(self, point: ChokePoint,
                 scope: Optional[Tuple[str, ...]] = None,
                 exempt: Optional[Tuple[str, ...]] = None) -> None:
        self.point = point
        self.code, self.name = point.code, point.name
        self.rationale = point.rationale
        self.exempt = point.exempt
        super().__init__(scope=scope, exempt=exempt)

    def check(self, sf: SourceFile) -> List[Finding]:
        point = self.point
        return [self.finding(sf, call,
                             f"{point.what} '{ast.unparse(call.func)}"
                             f"(...)'; {point.advice}")
                for call in sf.calls
                if isinstance(call.func, ast.Attribute)
                and call.func.attr in point.verbs
                and point.receiver(call.func.value)]
