"""Whole-program analysis: symbol index and call graph.

Most rules judge one AST at a time; the invariants added in this
layer — cross-actor state discipline, clock purity through helpers —
are properties of *paths through the call graph*, so they need a view
of the whole source tree at once.

Two pieces:

* :mod:`repro.analysis.program.summary` — extracts one
  :class:`ModuleSummary` per file: the defined functions and classes,
  an import-resolved candidate target list per call site, inferred
  attribute/local types, and wall-clock source calls.  A summary is a
  pure function of the file's text.
* :mod:`repro.analysis.program.index` — combines summaries into a
  :class:`ProgramIndex`: the project-wide function table, the resolved
  call graph, and the fixpoint fact rules consume (which functions
  reach a real-time source).

Rules opt in by setting ``uses_program = True``; the
:class:`~repro.analysis.core.Analyzer` builds one shared index per run
and hands it to every such rule as ``rule.program``.
"""

from repro.analysis.program.index import ProgramIndex
from repro.analysis.program.summary import (FunctionSummary, ModuleSummary,
                                            summarize)

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProgramIndex",
    "summarize",
]
