"""Tests for the whole-program layer: summaries and the index.

Covers the pieces the interprocedural rules stand on — the per-module
summary extractor and the combined index's clock fixpoint — plus the
cross-cutting contracts: output determinism (back-to-back runs), the
<10s whole-tree budget, and the pin that HL001's direct check and the
summary extractor flag the same clock sources.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules, run_paths
from repro.analysis.core import SourceFile
from repro.analysis.program.index import ProgramIndex
from repro.analysis.program.summary import (ACTOR_CLASS, CLOCK_SUFFIXES,
                                            summarize)
from repro.analysis.rules.hl001_clock_purity import HL001ClockPurity

REPO = Path(__file__).parent.parent
SRC = REPO / "src" / "repro"


def parse(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return SourceFile(p, str(p), text)


def build(files):
    return ProgramIndex.build(files)


@pytest.fixture(scope="module")
def src_index():
    """The index of ``src/repro``, built once for every index test."""
    return build(Analyzer(default_rules()).load([str(SRC)]))


# ---------------------------------------------------------------------------
# Summary extraction
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_clock_calls_detected_through_aliases(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "import time as t\n"
            "def stamp():\n"
            "    return t.monotonic()\n"))
        summary = summarize(sf)
        assert summary.functions["m.stamp"].clock_calls

    def test_actor_attr_types_inferred(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "from repro.sim.actor import Actor\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.peer = Actor('p')\n"))
        summary = summarize(sf)
        assert summary.attr_types["m.Box"]["peer"] == ACTOR_CLASS

    def test_clock_suffixes_pin_hl001(self, tmp_path):
        # One table: every source the extractor records, HL001's direct
        # check flags at the call site.
        body = "".join(f"def f{i}():\n    return {suffix}()\n"
                       for i, suffix in enumerate(CLOCK_SUFFIXES))
        sf = parse(tmp_path, "m.py", body)
        summary = summarize(sf)
        assert all(summary.functions[f"m.f{i}"].clock_calls
                   for i in range(len(CLOCK_SUFFIXES)))
        result = run_paths([sf.path], rules=[HL001ClockPurity()])
        assert sorted(f.line for f in result.findings) == [
            2 * i + 2 for i in range(len(CLOCK_SUFFIXES))]


# ---------------------------------------------------------------------------
# The combined index
# ---------------------------------------------------------------------------

class TestIndex:
    def test_src_clock_reach_stays_out_of_simulation(self, src_index):
        for qname, (via, _desc) in src_index.clock_reach.items():
            if via is None:
                continue  # direct sites are HL001-audited (noqa'd bench)
            assert not qname.startswith(("repro.core.", "repro.lfs.")), \
                f"simulation function reaches wall clock: {qname}"

    def test_clock_witness_paths_terminate_at_a_source(self, tmp_path):
        files = [parse(tmp_path, "m.py", (
            "import time\n"
            "def a():\n"
            "    return time.time()\n"
            "def b():\n"
            "    return a()\n"
            "def c():\n"
            "    return b()\n"))]
        idx = build(files)
        witness = idx.clock_witness("m.c")
        assert witness[0] == "m.c"
        assert witness[-1] == "time.time"
        assert "m.b" in witness and "m.a" in witness


# ---------------------------------------------------------------------------
# Cross-cutting contracts: determinism and the time budget
# ---------------------------------------------------------------------------

class TestContracts:
    def test_back_to_back_runs_are_byte_identical(self, src_analysis):
        one, _ = src_analysis
        two = run_paths([SRC])
        assert json.dumps(one.to_dict(), sort_keys=True) == \
            json.dumps(two.to_dict(), sort_keys=True)

    def test_whole_tree_analysis_meets_the_time_budget(self, src_analysis):
        result, elapsed = src_analysis
        assert result.errors == []
        assert elapsed < 10.0, f"whole-tree analysis took {elapsed:.1f}s"

    def test_overlapping_paths_analyze_each_file_once(self):
        tree = SRC / "analysis"
        inner = tree / "core.py"
        result = run_paths([tree, inner, tree])
        baseline = run_paths([tree])
        assert result.files_analyzed == baseline.files_analyzed
