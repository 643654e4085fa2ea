"""The combined program index: function table, call graph, fixpoints.

:meth:`ProgramIndex.build` turns the per-file
:class:`~repro.analysis.program.summary.ModuleSummary` set into the
whole-program facts rules consume:

* the **function table** (qname -> summary) and **call graph** (resolved
  project-internal edges; a candidate target that matches no known
  function is external and carries no edge);
* the **borrow fixpoint** — which functions return borrowed extent
  ranges, seeded by direct ``read_refs`` returns and iterated
  through ``returns_borrow_if`` conditional deps until stable;
* the **clock fixpoint** — which functions transitively reach a
  real-time source, with a witness path for diagnostics (HL001).

Summaries are pure per-file facts, so the index persists them in a JSON
cache keyed on each file's content hash: an incremental run only
re-summarizes changed modules (the CI analysis job caches this file
across runs and logs the reuse ratio and build time).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import SourceFile
from repro.analysis.program.summary import (ACTOR_CLASS, FunctionSummary,
                                            ModuleSummary, summarize)

__all__ = ["IndexStats", "ProgramIndex"]

_CACHE_VERSION = 2


@dataclass
class IndexStats:
    """Build accounting, logged by the CLI (never part of result JSON —
    timing would break byte-identical determinism)."""

    files_total: int = 0
    files_reused: int = 0
    functions: int = 0
    build_seconds: float = 0.0

    def format(self) -> str:
        return (f"program index: {self.functions} functions from "
                f"{self.files_total} module(s), {self.files_reused} "
                f"summarized from cache, built in "
                f"{self.build_seconds * 1000.0:.1f} ms")


class ProgramIndex:
    """Project-wide symbol index + call graph + dataflow fixpoints."""

    def __init__(self, modules: Dict[str, ModuleSummary],
                 stats: Optional[IndexStats] = None) -> None:
        self.modules = modules
        self.stats = stats or IndexStats()
        #: qname -> FunctionSummary, across all modules.
        self.functions: Dict[str, FunctionSummary] = {}
        #: class qname -> {attr -> constructed class dotted name}.
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self.class_bases: Dict[str, List[str]] = {}
        for mod in modules.values():
            self.functions.update(mod.functions)
            self.attr_types.update(mod.attr_types)
            self.class_bases.update(mod.class_bases)
        self.stats.functions = len(self.functions)
        #: Resolved project-internal call edges.
        self.edges: Dict[str, Set[str]] = {
            q: {t for t in f.calls if t in self.functions}
            for q, f in self.functions.items()}
        self.returns_borrow: Set[str] = self._borrow_fixpoint()
        #: qname -> (next hop qname or None, real-time source descriptor).
        self.clock_reach: Dict[str, Tuple[Optional[str], str]] = \
            self._clock_fixpoint()

    # -- fixpoints ----------------------------------------------------------

    def _borrow_fixpoint(self) -> Set[str]:
        known: Set[str] = {q for q, f in self.functions.items()
                           if f.returns_borrow_direct}
        changed = True
        while changed:
            changed = False
            for q, f in self.functions.items():
                if q in known:
                    continue
                if any(dep in known for dep in f.returns_borrow_if):
                    known.add(q)
                    changed = True
        return known

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

    def is_borrow_call(self, candidates: Sequence[str]) -> bool:
        """Does any candidate target resolve to a borrow-returning
        project function?"""
        return any(c in self.returns_borrow for c in candidates)

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
    def build(cls, files: Sequence[SourceFile],
              cache_path: Optional[Path] = None) -> "ProgramIndex":
        """Summarize every file (reusing hash-matched cache entries) and
        combine.  The cache file is rewritten after each build."""
        import time

        # Host-side build timing for the CI log; this is tooling that
        # never runs inside the simulation, hence the explicit noqa.
        t0 = time.perf_counter()  # noqa: HL001
        cached: Dict[str, Dict[str, object]] = {}
        if cache_path is not None and Path(cache_path).is_file():
            try:
                raw = json.loads(Path(cache_path).read_text(
                    encoding="utf-8"))
                if raw.get("version") == _CACHE_VERSION:
                    cached = raw.get("files", {})
            except (ValueError, OSError):
                cached = {}
        stats = IndexStats(files_total=len(files))
        modules: Dict[str, ModuleSummary] = {}
        out_files: Dict[str, Dict[str, object]] = {}
        for sf in files:
            digest = hashlib.sha256(sf.text.encode("utf-8")).hexdigest()
            entry = cached.get(sf.display_path)
            if entry is not None and entry.get("sha256") == digest:
                summary = ModuleSummary.from_dict(entry["summary"])
                stats.files_reused += 1
            else:
                summary = summarize(sf)
            modules[summary.module] = summary
            out_files[sf.display_path] = {"sha256": digest,
                                          "summary": summary.to_dict()}
        if cache_path is not None:
            try:
                Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
                Path(cache_path).write_text(
                    json.dumps({"version": _CACHE_VERSION,
                                "files": out_files},
                               sort_keys=True),
                    encoding="utf-8")
            except OSError:
                pass  # caching is best-effort, never fatal
        stats.build_seconds = time.perf_counter() - t0  # noqa: HL001
        return cls(modules, stats)
