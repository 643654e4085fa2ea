#!/usr/bin/env python3
"""Compare suite results of a parent commit and a change, pair by pair.

    python3 bench_e2e/compare.py P1.json C1.json [P2.json C2.json ...]

Each file is what ``run.py --out`` wrote; files come in (parent, change)
pairs, produced by alternating which side ran first.  One row is printed
per workload x end-to-end metric, judged against the bound in
``BENCHMARK.json`` by the rule of the choosing-metrics guide, section 8:

* **better** — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  spread of the parent's own runs (the distance between its quartiles);
* **worse** — the change's median is worse than the parent's by more
  than the bound, and either the parent's spread is within the bound or
  the change loses at least nine tenths of the pairs;
* **unresolved** — the parent's spread is wider than the bound, so a
  regression of that size could not be seen: not the same as unchanged;
* **unchanged** — everything else.

A workload on which the change fails more checks than the parent gets a
``failed_ops`` row marked worse: a gain does not count there.  Exits 1
if any row is worse.  With fewer than ten pairs the verdicts are
printed all the same, with a warning.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, int, int]:
    """(verdict, pairs the change won, pairs it lost)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, _q2, q3 = quartiles(parent)
    iqr, limit = q3 - q1, bound * abs(base)
    if wins >= WIN_SHARE * pairs and gain > iqr:
        return ("better", wins, losses)
    if -gain > limit:
        resolved = iqr <= limit or losses >= WIN_SHARE * pairs
        return ("worse" if resolved else "unresolved", wins, losses)
    return ("unresolved" if iqr > limit else "unchanged", wins, losses)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__)
        return 2
    manifest = load(MANIFEST)
    parents = [load(p) for p in argv[0::2]]
    changes = [load(p) for p in argv[1::2]]
    pairs = len(parents)
    if pairs < MIN_PAIRS:
        print(f"warning: {pairs} pair(s); a gain needs at least "
              f"{MIN_PAIRS}, alternating which side runs first")
    print(f"{'workload':<14} {'metric':<16} {'unit':<8} "
          f"{'parent median [q1, q3]':<38} {'change median [q1, q3]':<38} "
          f"{'won':>5} {'gap':>8} {'bound':>6}  verdict")
    worse = 0
    for wl in [w["name"] for w in manifest["workloads"]]:
        if not all(wl in run["workloads"] for run in parents + changes):
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            series: Dict[str, List[float]] = {
                side: [run["workloads"][wl]["end_to_end"][name]
                       for run in runs]
                for side, runs in (("parent", parents), ("change", changes))}
            word, wins, _losses = verdict(series["parent"], series["change"],
                                          metric["better"], metric["bound"])
            cells = []
            for side in ("parent", "change"):
                q1, q2, q3 = quartiles(series[side])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            base = statistics.median(series["parent"])
            gap = (statistics.median(series["change"]) - base) / base
            print(f"{wl:<14} {name:<16} {metric['unit']:<8} {cells[0]:<38} "
                  f"{cells[1]:<38} {wins:>2}/{pairs:<2} {gap:>+8.2%} "
                  f"{metric['bound']:>6}  {word}")
            worse += word == "worse"
        failed = [sum(run["workloads"][wl]["failed"] for run in runs)
                  for runs in (parents, changes)]
        word = "worse" if failed[1] > failed[0] else "unchanged"
        print(f"{wl:<14} {'failed_ops':<16} {'count':<8} {failed[0]:<38} "
              f"{failed[1]:<38} {'':>5} {'':>8} {0:>6}  {word}")
        worse += word == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
