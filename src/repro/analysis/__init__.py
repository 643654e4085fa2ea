"""Domain-specific static analysis for the HighLight reproduction.

The simulator's correctness rests on invariants the Python interpreter
cannot enforce for us:

* all simulated time flows through the virtual clock — a stray
  ``time.time()`` (or ``t.monotonic()`` through a module alias) or an
  unseeded ``random`` breaks golden-trace determinism (HL001);
* the filesystem core never swallows errors with blind ``except``
  clauses (HL006), and device-error retries are never blind loops
  (HL009);
* segment data moves as extents, not per-block loops (HL008);
* one actor does not mutate another actor's clock or account (HL012);
* the sanctioned doorways stay the only doorways: raw device I/O
  (HL002), tertiary submissions around the scheduler (HL007),
  foreign-shard data I/O (HL014) and data-plane I/O around the Client
  (HL015) — one rule class over a four-row table.

Every rule judges one file from that file's own facts.

Four contracts are checked at run time instead.  A borrowed extent range
must not be used after its store released it: the borrow sanitizer in
:mod:`repro.analysis.sanitize` traps that, and every tier-1 test runs
with it armed (``tests/conftest.py``).  Every emitted trace event type
is registered: :meth:`repro.obs.trace.TraceRecorder.emit` raises on an
unknown one, traced or not.  A line I/O stays inside the disk region of
the address space (paper §6.3, Fig. 4): :mod:`repro.core.addressing`
raises ``AddressError`` otherwise.  A metric series is looked up by the
label names its family declares: ``MetricFamily.labels`` raises
``MetricError`` otherwise.

``python -m repro.analysis src`` runs every rule over a source tree and
exits non-zero on findings; ``tests/test_analysis_clean.py`` runs the
same pass as a tier-1 test.  Findings can be suppressed per line with
``# noqa: HL0xx``.  See ``docs/ANALYSIS.md`` for the full rule catalogue.
"""

from repro.analysis.core import (AnalysisResult, Analyzer, Finding, Rule,
                                 SourceFile)
from repro.analysis.rules import default_rules

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "Rule",
    "SourceFile",
    "default_rules",
    "run_paths",
]


def run_paths(paths, rules=None) -> "AnalysisResult":
    """Analyze ``paths`` (files or directories) with ``rules``.

    This is the library/pytest entry point; the CLI in
    :mod:`repro.analysis.cli` is a thin wrapper around it.
    """
    analyzer = Analyzer(rules if rules is not None else default_rules())
    return analyzer.run(paths)
