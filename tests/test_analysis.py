"""Tests for the repro.analysis static-analysis suite.

Each HL rule has a dedicated fixture file under ``tests/analysis_fixtures/``
containing known violations (and near-misses that must stay clean).  The
tests here pin the exact set of (line, code) findings per fixture, exercise
``# noqa`` suppression semantics, and check the CLI's exit-status and
output contracts.
The fixtures are analyzed as source, never imported.  The contracts of
a whole-tree run (determinism, the time budget, overlapping inputs)
close the file.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Analyzer, Finding, run_paths
from repro.analysis.core import AnalysisError, SourceFile, dotted_name
from repro.analysis.rules import default_rules
from repro.analysis.rules.choke_points import (CHOKE_POINTS,
                                               CLUSTER_LOCALITY, DEVICE_IO,
                                               FRONTEND, SCHED_SUBMISSION,
                                               ChokePointRule)
from repro.analysis.rules.hl001_clock_purity import (CLOCK_SUFFIXES,
                                                     HL001ClockPurity)
from repro.analysis.rules.hl006_exceptions import HL006ExceptionDiscipline
from repro.analysis.rules.hl008_datapath_copy import HL008DatapathCopy
from repro.analysis.rules.hl009_retry_discipline import HL009RetryDiscipline
from repro.analysis.rules.hl012_actor_discipline import HL012ActorDiscipline

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"


def analyze(fixture, rules):
    """Run `rules` over one fixture file; return the AnalysisResult."""
    return run_paths([FIXTURES / fixture], rules=rules)


def lines_of(result, code):
    return sorted(f.line for f in result.findings if f.code == code)


# ---------------------------------------------------------------------------
# Per-rule fixtures: each rule must fire on its fixture's bad lines and
# stay silent on the good ones.
# ---------------------------------------------------------------------------

class TestRuleFixtures:
    def test_hl001_clock_purity(self):
        result = analyze("hl001_clock.py", [HL001ClockPurity()])
        # Lines 26-27 reach time/datetime through module aliases.
        assert lines_of(result, "HL001") == [
            7, 11, 12, 13, 14, 19, 20, 21, 26, 27]
        # The seeded-RNG / virtual-clock section stays clean.
        assert all(f.line < 31 for f in result.findings)

    def test_clock_calls_detected_through_aliases(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import time as t\n"
                       "def stamp():\n"
                       "    return t.monotonic()\n")
        result = run_paths([mod], rules=[HL001ClockPurity()])
        assert lines_of(result, "HL001") == [3]

    def test_clock_suffixes_pin_hl001(self, tmp_path):
        # One table: every source in it is flagged at the call site.
        mod = tmp_path / "m.py"
        mod.write_text("".join(f"def f{i}():\n    return {suffix}()\n"
                               for i, suffix in enumerate(CLOCK_SUFFIXES)))
        result = run_paths([mod], rules=[HL001ClockPurity()])
        assert lines_of(result, "HL001") == [
            2 * i + 2 for i in range(len(CLOCK_SUFFIXES))]

    def test_hl002_device_io(self):
        result = analyze("hl002_device.py", [ChokePointRule(DEVICE_IO)])
        assert lines_of(result, "HL002") == [5, 6, 8, 9, 10, 11]

    def test_hl002_exempt_module_is_silent(self):
        # The same violations are legal inside an exempted module.
        rule = ChokePointRule(DEVICE_IO, exempt=("hl002_device",))
        result = analyze("hl002_device.py", [rule])
        assert result.findings == []

    def test_hl006_exception_discipline(self):
        result = analyze("repro/lfs/hl006_except.py",
                         [HL006ExceptionDiscipline()])
        assert lines_of(result, "HL006") == [13, 20]

    def test_hl006_scope_excludes_other_packages(self):
        # The identical handlers outside repro.lfs / repro.core are
        # out of scope: the bare-except fixture re-read with a scope
        # that does not match produces nothing.
        rule = HL006ExceptionDiscipline(scope=("repro.workloads",))
        result = analyze("repro/lfs/hl006_except.py", [rule])
        assert result.findings == []

    def test_hl007_sched_submission(self):
        result = analyze("hl007_sched.py", [ChokePointRule(SCHED_SUBMISSION)])
        assert lines_of(result, "HL007") == [5, 6, 7, 8, 10]
        # The facade calls and plain attribute reads stay clean.
        assert all(f.line <= 10 for f in result.findings)

    def test_hl007_exempt_inside_scheduler_package(self):
        # The scheduler package itself is the sanctioned caller.
        rule = ChokePointRule(SCHED_SUBMISSION, exempt=("hl007_sched",))
        result = analyze("hl007_sched.py", [rule])
        assert result.findings == []

    def test_hl008_datapath_copy(self):
        result = analyze("hl008_datapath.py", [HL008DatapathCopy()])
        # Lines 64 and 66 reach the device through ``self.driver`` and a
        # subscripted ``drives[idx]`` receiver.
        assert lines_of(result, "HL008") == [7, 9, 11, 12, 17, 18, 19, 41,
                                             64, 66]
        # Vectored single calls, non-store receivers, non-range loops,
        # comprehension-built ref batches, and while-loop spills (one
        # accumulated region per pass) all stay clean.
        assert all(f.line <= 19 or f.line in (41, 64, 66)
                   for f in result.findings)

    def test_hl008_exempt_inside_blockdev(self):
        # The stores themselves legitimately hold the representation.
        rule = HL008DatapathCopy(exempt=("hl008_datapath",))
        result = analyze("hl008_datapath.py", [rule])
        assert result.findings == []

    def test_hl009_retry_discipline(self):
        result = analyze("hl009_retry.py", [HL009RetryDiscipline()])
        assert lines_of(result, "HL009") == [8, 16, 26]
        # RetryPolicy use, permanent-error fail-over, escaping handlers,
        # nested defs, and loop-less handlers all stay clean.
        assert all(f.line <= 26 for f in result.findings)

    def test_hl009_exempt_inside_faults_package(self):
        # repro.faults owns the sanctioned retry engine.
        rule = HL009RetryDiscipline(exempt=("hl009_retry",))
        result = analyze("hl009_retry.py", [rule])
        assert result.findings == []

    def test_hl012_actor_discipline(self):
        result = analyze("hl012_actor.py", [HL012ActorDiscipline()])
        assert lines_of(result, "HL012") == [12, 13, 22, 23, 24, 29]
        # Executing-actor mutation, locally-owned actors, construction,
        # and channel puts all stay clean.
        assert all(f.line <= 29 for f in result.findings)

    def test_hl012_instance_actor_needs_the_index(self):
        # Lines 12-13 mutate self.peer, typed Actor only by the class's
        # own ``self.peer = Actor(...)``: the index is the file's own.
        result = analyze("hl012_actor.py", [HL012ActorDiscipline()])
        assert {f.line for f in result.findings
                if "instance-held actor" in f.message} == {12, 13}

    def test_hl012_exempt_inside_sim(self):
        rule = HL012ActorDiscipline(exempt=("hl012_actor",))
        result = analyze("hl012_actor.py", [rule])
        assert result.findings == []

    def test_hl001_reports_the_direct_caller_once(self):
        # The function that calls time.time() is reported at the call
        # (line 7), never again at its def (line 6), and the helpers
        # that call it are not reported at all.
        result = analyze("repro/core/hl001_reach.py", [HL001ClockPurity()])
        assert [f.line for f in result.findings].count(7) == 1
        assert all(f.line != 6 for f in result.findings)

    def test_hl001_reach_outside_the_simulation_is_silent(self, tmp_path):
        # The same pattern in any module: only the direct call counts.
        fixture = FIXTURES / "repro" / "core" / "hl001_reach.py"
        tool = tmp_path / "tool.py"
        tool.write_text(fixture.read_text())
        result = run_paths([tool], rules=[HL001ClockPurity()])
        assert lines_of(result, "HL001") == [7]

    def test_hl014_cluster_locality(self):
        result = analyze("hl014_cluster.py",
                         [ChokePointRule(CLUSTER_LOCALITY)])
        assert lines_of(result, "HL014") == [5, 6, 7, 8, 9, 10, 12]

    def test_hl014_sanctioned_surfaces_stay_clean(self):
        # The router, the object surface, and control-plane
        # introspection never fire.
        result = analyze("hl014_cluster.py",
                         [ChokePointRule(CLUSTER_LOCALITY)])
        assert all(f.line <= 12 for f in result.findings)

    def test_hl014_exempt_inside_router(self):
        rule = ChokePointRule(CLUSTER_LOCALITY, exempt=("hl014_cluster",))
        result = analyze("hl014_cluster.py", [rule])
        assert result.findings == []

    def test_hl015_frontend_discipline(self):
        result = analyze("hl015_frontend.py", [ChokePointRule(FRONTEND)])
        assert lines_of(result, "HL015") == [5, 6, 7, 8, 9, 18]

    def test_hl015_client_sessions_stay_clean(self):
        # Client handles, the router surface, and control-plane fs
        # calls (stat/mkdir) never fire.
        result = analyze("hl015_frontend.py", [ChokePointRule(FRONTEND)])
        assert all(f.line <= 18 for f in result.findings)

    def test_hl015_exempt_inside_adapters(self):
        rule = ChokePointRule(FRONTEND, exempt=("hl015_frontend",))
        result = analyze("hl015_frontend.py", [rule])
        assert result.findings == []

    def test_choke_point_message_names_the_call_and_the_doorway(self):
        result = analyze("hl014_cluster.py",
                         [ChokePointRule(CLUSTER_LOCALITY)])
        first = next(f for f in result.findings if f.line == 7)
        assert "'nodes[1].disk.write(...)'" in first.message
        assert "ClusterRouter" in first.message


# ---------------------------------------------------------------------------
# Suppression (# noqa) semantics
# ---------------------------------------------------------------------------

class TestNoqa:
    def test_noqa_suppresses_matching_code(self):
        result = analyze("hl_noqa.py", [HL001ClockPurity()])
        # Lines 7 (noqa: HL001) and 8 (blanket noqa) are suppressed;
        # line 13 carries a noqa for the *wrong* code and still fires.
        assert lines_of(result, "HL001") == [13]
        assert sorted(f.line for f in result.suppressed) == [7, 8]

    def test_suppressed_findings_keep_their_identity(self):
        result = analyze("hl_noqa.py", [HL001ClockPurity()])
        assert all(f.code == "HL001" for f in result.suppressed)
        assert result.ok is False  # line 13 still counts

    def test_noqa_in_a_compound_body_covers_only_that_line(self):
        # Regression: the span of an except/loop finding was the whole
        # statement, so a noqa anywhere in its body suppressed it.  Only
        # header lines suppress now (line 29, and line 37 for the
        # handler whose header starts on line 36).
        result = analyze("repro/core/hl_noqa_compound.py", default_rules())
        assert sorted((f.code, f.line) for f in result.findings) == [
            ("HL006", 14), ("HL009", 22)]
        assert sorted((f.code, f.line) for f in result.suppressed) == [
            ("HL001", 8), ("HL006", 29), ("HL006", 36)]

    def test_noqa_inside_a_string_literal_is_inert(self):
        # Regression: the scan once regexed raw lines, so a string
        # containing "# noqa: HL001" masked a violation on its line.
        result = analyze("hl_noqa_strings.py", [HL001ClockPurity()])
        assert lines_of(result, "HL001") == [12]
        assert sorted(f.line for f in result.suppressed) == [16]


# ---------------------------------------------------------------------------
# Framework behavior
# ---------------------------------------------------------------------------

class TestFramework:
    def test_all_rules_have_distinct_codes_and_docs(self):
        codes = [r.code for r in default_rules()]
        assert len(set(codes)) == len(codes) == 9
        for rule in default_rules():
            assert rule.code.startswith("HL")
            assert rule.name
            assert rule.rationale

    def test_default_rules_instantiates_every_rule(self):
        codes = [r.code for r in default_rules()]
        assert codes == sorted(codes)
        assert {p.code for p in CHOKE_POINTS} <= set(codes)
        assert not {"HL003", "HL004", "HL005", "HL010", "HL011",
                    "HL013"} & set(codes)

    def test_dotted_name_roots_at_repro(self):
        assert dotted_name(Path("src/repro/lfs/segwriter.py")) == \
            "repro.lfs.segwriter"
        assert dotted_name(
            Path("tests/analysis_fixtures/repro/lfs/hl006_except.py")) == \
            "repro.lfs.hl006_except"
        assert dotted_name(Path("scripts/tool.py")) == "tool"

    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        result = run_paths([bad], rules=default_rules())
        assert result.errors and "broken.py" in result.errors[0]
        assert result.ok is False

    def test_duplicate_rule_codes_rejected(self):
        with pytest.raises(AnalysisError):
            Analyzer(rules=[HL001ClockPurity(), HL001ClockPurity()])

    def test_finding_format_is_grep_friendly(self):
        f = Finding(path="src/x.py", line=3, col=4, code="HL001",
                    message="msg")
        assert f.format() == "src/x.py:3:4: HL001 msg"

    def test_collects_directories_recursively(self):
        files = Analyzer.collect_files([FIXTURES])
        names = {p.name for p in files}
        assert "hl006_except.py" in names  # nested under repro/lfs/
        result = run_paths([FIXTURES], rules=default_rules())
        assert result.files_analyzed == len(files)


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True,
        cwd=Path(__file__).parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


class TestCLI:
    def test_clean_run_exits_zero(self):
        proc = run_cli(str(FIXTURES / "repro" / "lfs" / "hl006_except.py"),
                       "--select", "HL001")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_select_limits_rules(self):
        proc = run_cli(str(FIXTURES), "--select", "HL009")
        assert proc.returncode == 1
        assert "HL009" in proc.stdout
        assert "HL001" not in proc.stdout

    def test_unknown_code_is_usage_error(self):
        proc = run_cli("src", "--select", "HL999")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule in default_rules():
            assert rule.code in proc.stdout

    def test_help_names_every_rule_code(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        text = " ".join(proc.stdout.split())
        assert ", ".join(r.code for r in default_rules()) in text

    def test_retired_codes_are_unknown(self):
        for code in ("HL003", "HL004", "HL005", "HL010", "HL011", "HL013"):
            assert run_cli("src", "--select", code).returncode == 2

    def test_github_format(self):
        proc = run_cli(str(FIXTURES / "hl002_device.py"),
                       "--format", "github")
        assert proc.returncode == 1
        lines = [ln for ln in proc.stdout.splitlines() if ln]
        assert lines
        assert all(ln.startswith("::error file=") for ln in lines)
        assert "title=HL002" in lines[0]


# ---------------------------------------------------------------------------
# SourceFile plumbing used by every rule
# ---------------------------------------------------------------------------

class TestSourceFile:
    def test_noqa_table_parses_codes(self, tmp_path):
        p = tmp_path / "m.py"
        text = "x = 1  # noqa: HL001, HL002\ny = 2  # noqa\nz = 3\n"
        p.write_text(text)
        sf = SourceFile(p, str(p), text)
        f1 = Finding(path=str(p), line=1, col=0, code="HL001", message="m")
        f2 = Finding(path=str(p), line=1, col=0, code="HL009", message="m")
        f3 = Finding(path=str(p), line=2, col=0, code="HL006", message="m")
        f4 = Finding(path=str(p), line=3, col=0, code="HL001", message="m")
        assert sf.suppresses(f1)
        assert not sf.suppresses(f2)  # code not listed
        assert sf.suppresses(f3)      # blanket noqa
        assert not sf.suppresses(f4)  # no comment


# ---------------------------------------------------------------------------
# Whole-tree contracts: determinism and the time budget
# ---------------------------------------------------------------------------

class TestContracts:
    def test_back_to_back_runs_are_byte_identical(self, src_analysis):
        one, _ = src_analysis
        two = run_paths([SRC])
        assert (one.findings, one.suppressed, one.errors) == \
            (two.findings, two.suppressed, two.errors)

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
