"""Whole-program analysis: symbol index, call graph, and dataflow.

Most rules judge one AST at a time; the invariants added in this
layer — borrow lifetimes, cross-actor state discipline, clock purity
through helpers — are properties of *paths through the call
graph*, so they need a view of the whole source tree at once.

Three pieces:

* :mod:`repro.analysis.program.summary` — extracts one
  :class:`ModuleSummary` per file: the defined functions and classes,
  an import-resolved candidate target list per call site, inferred
  attribute/local types, wall-clock source calls, and per-function
  borrow taint facts.  A summary is a pure, JSON-serializable function
  of the file's text, which is what makes the on-disk index cache
  (keyed on content hashes) sound.
* :mod:`repro.analysis.program.index` — combines summaries into a
  :class:`ProgramIndex`: the project-wide function table, the resolved
  call graph, and the fixpoint facts rules consume (which functions
  return borrows, which reach a real-time source).
* :mod:`repro.analysis.program.dataflow` — the small in-function
  dataflow framework: reaching name bindings and borrow-taint/escape
  analysis over a function body.

Rules opt in by setting ``uses_program = True``; the
:class:`~repro.analysis.core.Analyzer` builds one shared index per run
and hands it to every such rule as ``rule.program``.
"""

from repro.analysis.program.index import IndexStats, ProgramIndex
from repro.analysis.program.summary import (FunctionSummary, ModuleSummary,
                                            summarize)

__all__ = [
    "FunctionSummary",
    "IndexStats",
    "ModuleSummary",
    "ProgramIndex",
    "summarize",
]
