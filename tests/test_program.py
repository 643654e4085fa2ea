"""Tests for the whole-program layer: summaries, index, dataflow.

Covers the pieces the interprocedural rules stand on — the per-module
summary extractor, the combined index's borrow/clock fixpoints, the
hash-keyed summary cache — plus the cross-cutting contracts: output
determinism (back-to-back runs), the <10s whole-tree budget, and the
pin that HL001's direct check and the summary extractor flag the same
clock sources.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules, run_paths
from repro.analysis.core import SourceFile
from repro.analysis.program.dataflow import analyze_borrows
from repro.analysis.program.index import ProgramIndex
from repro.analysis.program.summary import (ACTOR_CLASS, CLOCK_SUFFIXES,
                                            ModuleSummary, summarize)
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
def src_files():
    """``src/repro`` loaded once for every index test."""
    return Analyzer(default_rules()).load([str(SRC)])


@pytest.fixture(scope="module")
def src_index(src_files):
    return build(src_files)


# ---------------------------------------------------------------------------
# Summary extraction
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_borrow_returning_function_is_summarized(self, tmp_path):
        sf = parse(tmp_path, "repro_mod.py", (
            "def lend(store, blkno):\n"
            "    return store.read_refs(blkno, 4)\n"
            "def opaque(store):\n"
            "    return store.written_blocks()\n"))
        summary = summarize(sf)
        lend = summary.functions["repro_mod.lend"]
        assert lend.returns_borrow_direct
        assert not summary.functions["repro_mod.opaque"].returns_borrow_direct

    def test_conditional_borrow_recorded_as_dependency(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "def helper(store):\n"
            "    return store.read_refs(0, 1)\n"
            "def outer(store):\n"
            "    return helper(store)\n"))
        summary = summarize(sf)
        outer = summary.functions["m.outer"]
        assert not outer.returns_borrow_direct
        assert "m.helper" in outer.returns_borrow_if

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

    def test_summary_round_trips_through_json(self, tmp_path):
        sf = parse(tmp_path, "m.py", (
            "def lend(store):\n"
            "    return store.read_refs(0, 1)\n"))
        summary = summarize(sf)
        encoded = json.dumps(summary.to_dict(), sort_keys=True)
        restored = ModuleSummary.from_dict(json.loads(encoded))
        assert restored.to_dict() == summary.to_dict()

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
# Dataflow
# ---------------------------------------------------------------------------

class TestDataflow:
    def _fn(self, tmp_path, body):
        sf = parse(tmp_path, "m.py", body)
        import ast
        fn = next(n for n in sf.tree.body
                  if isinstance(n, ast.FunctionDef))
        return fn

    def test_escape_on_module_container(self, tmp_path):
        fn = self._fn(tmp_path, (
            "def f(store):\n"
            "    refs = store.read_refs(0, 1)\n"
            "    SINK.append(refs)\n"))
        analysis = analyze_borrows(fn, lambda call: [])
        assert [e.kind for e in analysis.escapes] == ["container"]

    def test_no_escape_for_local_container(self, tmp_path):
        fn = self._fn(tmp_path, (
            "def f(store):\n"
            "    out = []\n"
            "    refs = store.read_refs(0, 1)\n"
            "    out.append(refs)\n"
            "    return len(out)\n"))
        analysis = analyze_borrows(fn, lambda call: [])
        assert analysis.escapes == []

    def test_loop_carried_taint_converges(self, tmp_path):
        # The taint reaches `acc` only on the second propagate pass.
        fn = self._fn(tmp_path, (
            "def f(store, n):\n"
            "    acc = None\n"
            "    for i in range(n):\n"
            "        acc = prev\n"
            "        prev = store.read_refs(i, 1)\n"
            "    self_like.cache = acc\n"))
        analysis = analyze_borrows(fn, lambda call: [])
        assert analysis.escapes == []  # self_like is a local-ish name
        fn2 = self._fn(tmp_path, (
            "def f(self, store, n):\n"
            "    acc = None\n"
            "    for i in range(n):\n"
            "        acc = prev\n"
            "        prev = store.read_refs(i, 1)\n"
            "    self.cache = acc\n"))
        analysis2 = analyze_borrows(fn2, lambda call: [])
        assert [e.kind for e in analysis2.escapes] == ["self"]


# ---------------------------------------------------------------------------
# The combined index
# ---------------------------------------------------------------------------

class TestIndex:
    def test_src_borrow_fixpoint_finds_the_lending_chain(self, src_index):
        idx = src_index
        # The devices lend by *calling* their store's read_refs...
        assert "repro.blockdev.disk.DiskDevice.read_refs" \
            in idx.returns_borrow
        # ...and one indirection further up, the line-I/O choke point.
        assert "repro.core.addressing.line_read_refs" in idx.returns_borrow

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

    def test_cache_reuse_round_trip(self, tmp_path, src_files):
        cache = tmp_path / "index.json"
        files = src_files
        first = ProgramIndex.build(files, cache_path=cache)
        assert first.stats.files_reused == 0
        assert cache.is_file()
        second = ProgramIndex.build(files, cache_path=cache)
        assert second.stats.files_reused == second.stats.files_total
        assert second.returns_borrow == first.returns_borrow
        assert second.clock_reach == first.clock_reach

    def test_cache_invalidates_on_content_change(self, tmp_path):
        cache = tmp_path / "index.json"
        src = parse(tmp_path, "m.py", "def f():\n    return 1\n")
        ProgramIndex.build([src], cache_path=cache)
        changed = parse(tmp_path, "m.py",
                        "def f(store):\n    return store.read_refs(0, 1)\n")
        idx = ProgramIndex.build([changed], cache_path=cache)
        assert idx.stats.files_reused == 0
        assert "m.f" in idx.returns_borrow


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
        assert result.index_stats is not None  # program rules ran
        assert elapsed < 10.0, f"whole-tree analysis took {elapsed:.1f}s"

    def test_index_stats_never_leak_into_result_json(self, src_analysis):
        result, _ = src_analysis
        assert result.index_stats is not None
        payload = json.dumps(result.to_dict())
        assert "build_seconds" not in payload

    def test_overlapping_paths_analyze_each_file_once(self):
        tree = SRC / "analysis"
        inner = tree / "core.py"
        result = run_paths([tree, inner, tree])
        baseline = run_paths([tree])
        assert result.files_analyzed == baseline.files_analyzed
