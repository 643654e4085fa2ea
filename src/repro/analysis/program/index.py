"""The combined program index: function table, call graph, fixpoints.

:meth:`ProgramIndex.build` turns the per-file
:class:`~repro.analysis.program.summary.ModuleSummary` set into the
whole-program facts rules consume:

* the **function table** (qname -> summary) and **call graph** (resolved
  project-internal edges; a candidate target that matches no known
  function is external and carries no edge);
* the **clock fixpoint** — which functions transitively reach a
  real-time source, with a witness path for diagnostics (HL001).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import SourceFile
from repro.analysis.program.summary import (ACTOR_CLASS, FunctionSummary,
                                            ModuleSummary, summarize)

__all__ = ["ProgramIndex"]


class ProgramIndex:
    """Project-wide symbol index + call graph + clock fixpoint."""

    def __init__(self, modules: Dict[str, ModuleSummary]) -> None:
        self.modules = modules
        #: qname -> FunctionSummary, across all modules.
        self.functions: Dict[str, FunctionSummary] = {}
        #: class qname -> {attr -> constructed class dotted name}.
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self.class_bases: Dict[str, List[str]] = {}
        for mod in modules.values():
            self.functions.update(mod.functions)
            self.attr_types.update(mod.attr_types)
            self.class_bases.update(mod.class_bases)
        #: Resolved project-internal call edges.
        self.edges: Dict[str, Set[str]] = {
            q: {t for t in f.calls if t in self.functions}
            for q, f in self.functions.items()}
        #: qname -> (next hop qname or None, real-time source descriptor).
        self.clock_reach: Dict[str, Tuple[Optional[str], str]] = \
            self._clock_fixpoint()

    # -- fixpoints ----------------------------------------------------------

    def _clock_fixpoint(self) -> Dict[str, Tuple[Optional[str], str]]:
        reach: Dict[str, Tuple[Optional[str], str]] = {}
        for q, f in sorted(self.functions.items()):
            if f.clock_calls:
                reach[q] = (None, sorted(f.clock_calls)[0])
        # Reverse-BFS: callers of reaching functions reach too.  Sorted
        # worklists keep the chosen witness deterministic.
        callers: Dict[str, Set[str]] = {}
        for q, targets in self.edges.items():
            for t in targets:
                callers.setdefault(t, set()).add(q)
        frontier = sorted(reach)
        while frontier:
            nxt: List[str] = []
            for target in frontier:
                descriptor = reach[target][1]
                for caller in sorted(callers.get(target, ())):
                    if caller not in reach:
                        reach[caller] = (target, descriptor)
                        nxt.append(caller)
            frontier = sorted(nxt)
        return reach

    # -- queries ------------------------------------------------------------

    def clock_witness(self, qname: str) -> Optional[List[str]]:
        """The call path from ``qname`` to its real-time source, e.g.
        ``["repro.core.x.f", "repro.core.x.g", "time.time"]``; None when
        the function never reaches one."""
        if qname not in self.clock_reach:
            return None
        path = [qname]
        seen = {qname}
        cursor = qname
        while True:
            via, descriptor = self.clock_reach[cursor]
            if via is None or via in seen:
                path.append(descriptor)
                return path
            path.append(via)
            seen.add(via)
            cursor = via

    def actor_attrs(self, class_qname: str) -> Set[str]:
        """Attributes of ``class_qname`` holding ``Actor`` instances."""
        return {attr for attr, typ
                in self.attr_types.get(class_qname, {}).items()
                if typ == ACTOR_CLASS}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "ProgramIndex":
        """Summarize every file and combine."""
        modules: Dict[str, ModuleSummary] = {}
        for sf in files:
            summary = summarize(sf)
            modules[summary.module] = summary
        return cls(modules)
