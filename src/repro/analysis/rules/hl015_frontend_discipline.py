"""HL015: data-plane I/O enters through a Client session, not raw fs.

PR 10 gave the repo one front door: every application-level read/write
is supposed to flow through a :class:`repro.frontend.session.Client`,
where it is attributed to a tenant, paced by that tenant's token
bucket, counted in the ``frontend_*`` series, and visible to the SLO
report.  A stray ``fs.read_path(...)`` in driver-level code moves the
same bytes with none of that — the request is invisible to admission
control and the per-tenant accounting quietly under-reports.

Same name-heuristic choke-point pattern as HL002/HL007/HL014: the rule
flags ``read_path``/``write_path`` calls whose receiver chain names a
filesystem handle (``fs``, ``self.fs``, ``bed.fs``, ``node.fs``...).
The storage stack itself is exempt — ``repro.core``/``repro.lfs``/
``repro.ffs`` *implement* the path API, the cluster shards store extent
objects through it, and the frontend's backend adapters are the
sanctioned translation layer — as are the harness/table benches that
predate (and deliberately bypass) tenancy.  Scenario code that models
*clients*, starting with ``repro.bench.frontend_scenario``, must go
through the Client.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import dotted_chain, walk_calls

#: The path-level data plane (block/extent-level ``read``/``write``
#: inside the stack charge their own discipline via HL002/HL008).
_DATA_METHODS = frozenset({"read_path", "write_path"})

#: A receiver chain link denoting a filesystem handle.
_FS_NAMES = frozenset({"fs"})

_DEFAULT_EXEMPT: Tuple[str, ...] = (
    # The stack that implements (and internally composes) the path API.
    "repro.core", "repro.lfs", "repro.ffs",
    # Persistence/fault/recovery machinery operates below sessions.
    "repro.persist", "repro.faults",
    # Shards store extent objects via their private fs; the router is
    # the cluster's internal data plane (HL014 owns its discipline).
    "repro.cluster",
    # Workload/check drivers that exercise the raw filesystems
    # (FFS/LFS A/B comparisons have no HighLight service underneath).
    "repro.workloads",
    # The frontend's own backend adapters: the sanctioned translation
    # from Client verbs to fs calls.
    "repro.frontend.backends",
    # Pre-tenancy benches and harness plumbing (paper tables measure
    # the bare stack on purpose).  Note repro.bench.frontend_scenario
    # is NOT here: the multi-tenant scenario must drive the Client.
    "repro.bench.harness", "repro.bench.tables", "repro.bench.figures",
    "repro.bench.policy_eval", "repro.bench.scenarios",
    "repro.bench.cluster_scenario",
    # Rule modules quote the patterns they look for.
    "repro.analysis",
)


def _fs_link(receiver: ast.AST) -> str | None:
    """Walk a call's receiver chain; return the dotted rendering of the
    first link that names a filesystem handle, else None."""
    cur = receiver
    while True:
        if isinstance(cur, ast.Attribute):
            if cur.attr in _FS_NAMES:
                return dotted_chain(cur) or f"<...>.{cur.attr}"
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        elif isinstance(cur, ast.Name):
            if cur.id in _FS_NAMES:
                return cur.id
            return None
        else:
            return None


class HL015FrontendDiscipline(Rule):
    code = "HL015"
    name = "frontend-discipline"
    rationale = ("raw fs path I/O bypasses tenant attribution, "
                 "token-bucket admission, and the frontend_* SLO "
                 "accounting; data-plane requests enter through a "
                 "Client session")
    exempt = _DEFAULT_EXEMPT

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in walk_calls(sf.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _DATA_METHODS:
                continue
            link = _fs_link(func.value)
            if link is not None:
                findings.append(self.finding(
                    sf, call,
                    f"raw data-plane I/O '{link}.…{func.attr}(...)'; "
                    f"open a session through the Client API "
                    f"(repro.open_node / repro.open_cluster) instead"))
        return findings
