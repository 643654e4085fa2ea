"""Command-line driver: ``python -m repro.analysis [paths...]``.

Exit status is a pinned contract (tests/test_analysis.py::TestCLI):
0 clean, 1 findings (or unparseable files), 2 framework/usage error.

``--format`` selects text (default) or ``github`` (inline ``::error``
annotations for Actions runs).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis import run_paths
from repro.analysis.core import AnalysisError, AnalysisResult, Rule
from repro.analysis.rules import default_rules


def _select_rules(codes: Optional[str]) -> List[Rule]:
    rules = default_rules()
    if not codes:
        return rules
    wanted = {c.strip().upper() for c in codes.split(",") if c.strip()}
    known = {r.code for r in rules}
    unknown = wanted - known
    if unknown:
        raise AnalysisError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}")
    return [r for r in rules if r.code in wanted]


def _list_rules() -> str:
    lines = []
    for rule in default_rules():
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"       {rule.rationale}")
    return "\n".join(lines)


def to_github(result: AnalysisResult) -> List[str]:
    """Render findings as GitHub Actions ``::error`` workflow commands."""
    lines: List[str] = []
    for f in sorted(result.findings):
        message = f.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::error file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.code}::{message}")
    for err in result.errors:
        text = err.replace("%", "%25").replace("\n", "%0A")
        lines.append(f"::error title=analysis-error::{text}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    codes = ", ".join(rule.code for rule in default_rules())
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=f"HighLight domain-specific static analysis "
                    f"(invariants {codes}; see docs/ANALYSIS.md)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text", help="output format")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        rules = _select_rules(args.select)
        result = run_paths(args.paths, rules=rules)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "github":
        for line in to_github(result):
            print(line)
        print(f"{len(result.findings)} finding(s) in "
              f"{result.files_analyzed} file(s)", file=sys.stderr)
    else:
        for finding in result.findings:
            print(finding.format())
        for err in result.errors:
            print(f"error: {err}")
        counts = result.counts_by_code()
        summary = ", ".join(f"{code}: {n}" for code, n in counts.items())
        print(f"{len(result.findings)} finding(s) in "
              f"{result.files_analyzed} file(s)"
              + (f" [{summary}]" if summary else "")
              + (f" ({len(result.suppressed)} suppressed)"
                 if result.suppressed else ""))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
