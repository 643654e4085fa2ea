#!/usr/bin/env python3
"""bench_e2e: the repo's end-to-end, layer-attributed benchmark.

One workload, one pass (what the benchmark driver runs; the last line of
standard output is the result object)::

    python3 bench_e2e/run.py --workload read_hot --seed 7 --seconds 10 --trace 0

The whole suite — five workloads, each in a fresh subprocess, first
untraced for the end-to-end numbers, then traced for the per-layer
ones, with the traced pass checked bit for bit against the untraced::

    python3 bench_e2e/run.py [--seed N] [--workload W] [--quick] [--out FILE]

``--check-determinism`` runs every workload twice untraced and once
traced on one seed and requires identical exact records, and a second
seed to change the request digest.  ``--calibrate K`` runs K untraced
suite passes on K seeds and writes ``BENCHMARK.json`` with each bound
widened to three times the spread it saw.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
# The simulator is imported from the checkout this file sits in; the
# benchmark's own modules sit beside this file.
sys.path.insert(0, os.path.join(ROOT, "src"))

DEFAULT_SEED = 1993
DEFAULT_SECONDS = 10
#: bound = max(default, SPREAD_FACTOR x measured spread), at most MAX_BOUND.
SPREAD_FACTOR = 3.0
MAX_BOUND = 0.25


def run_seconds() -> int:
    try:
        with open(MANIFEST, encoding="utf-8") as fh:
            return int(json.load(fh)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return DEFAULT_SECONDS


# -- one workload, one pass, this process ---------------------------------------

def run_one(args) -> int:
    import worker
    record = worker.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), quick=args.quick,
                            trace_out=args.trace_out)
    for line in worker.render(record):
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(worker.result_line(record)))
    return 0 if record["correct"] else 1


# -- the suite: one subprocess per workload and pass ----------------------------

def spawn(workload: str, seed: int, seconds: float, trace: int,
          quick: bool, trace_out: Optional[str] = None,
          echo: bool = True) -> dict:
    """Run one pass in a fresh interpreter; returns its record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    record = None
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
        elif echo:
            print(line)
    sys.stdout.flush()
    if record is None:
        raise SystemExit(f"{workload}: pass exited {proc.returncode} "
                         f"without a result")
    return record


def exact_mismatch(a: dict, b: dict) -> List[str]:
    """Names on which two exact records of one seed differ."""
    bad = [k for k in a if k != "counts" and a[k] != b.get(k)]
    ca, cb = a["counts"], b["counts"]
    bad += [f"counts[{k}]" for k in sorted(set(ca) | set(cb))
            if ca.get(k) != cb.get(k)]
    return bad


def run_suite(args, workloads: List[str]) -> int:
    import catalog
    out = {"seed": args.seed, "quick": args.quick, "seconds": args.seconds,
           "workloads": {}}
    status = 0
    for name in workloads:
        plain = spawn(name, args.seed, args.seconds, 0, args.quick)
        traced = spawn(name, args.seed, args.seconds, 1, args.quick,
                       trace_out=args.trace_out)
        bad = exact_mismatch(plain["exact"], traced["exact"])
        if bad:
            print(f"  MISMATCH: traced pass differs from untraced on "
                  f"{', '.join(bad[:8])}")
            status = 1
        else:
            print(f"  traced pass reproduces every exact metric and "
                  f"{len(plain['exact']['counts'])} obs series of the "
                  f"untraced pass")
        if not (plain["correct"] and traced["correct"]):
            print(f"  INCORRECT: {plain['failed']} + {traced['failed']} "
                  f"failed checks")
            status = 1
        share = {layer: traced["metrics"][f"{layer}.self_us_per_op"]
                 for layer in list(catalog.LAYERS) + [catalog.OTHER]}
        total = sum(share.values())
        top = sorted(share, key=share.get, reverse=True)[:5]
        print("  self-time shares: " + ", ".join(
            f"{layer} {100 * share[layer] / total:.1f}%" for layer in top))
        out["workloads"][name] = {
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "exact": plain["exact"], "samples": plain["samples"],
            "traced_samples": traced["samples"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    print("suite " + ("FAILED" if status else "ok"))
    return status


def check_determinism(args, workloads: List[str]) -> int:
    status = 0
    for name in workloads:
        runs = [spawn(name, args.seed, args.seconds, trace, args.quick,
                      echo=False) for trace in (0, 0, 1)]
        other = spawn(name, args.seed + 1, 0, 0, True, echo=False)
        bad = exact_mismatch(runs[0]["exact"], runs[1]["exact"]) + \
            exact_mismatch(runs[0]["exact"], runs[2]["exact"])
        same_stream = other["exact"]["digest"] == runs[0]["exact"]["digest"]
        verdict = "ok"
        if bad:
            verdict = f"NOT DETERMINISTIC on {', '.join(sorted(set(bad))[:8])}"
        elif same_stream:
            verdict = "seed does not change the request stream"
        status |= verdict != "ok"
        print(f"{name}: seed={args.seed} digest={runs[0]['exact']['digest']} "
              f"seed={args.seed + 1} digest={other['exact']['digest']} "
              f"exact_ops={runs[0]['exact']['ops']} "
              f"series={len(runs[0]['exact']['counts'])}: {verdict}")
    return status


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibrate(args, workloads: List[str]) -> int:
    """K untraced passes on K seeds -> bounds -> BENCHMARK.json."""
    import catalog
    from workloads import WORKLOADS
    values: Dict[str, Dict[str, List[float]]] = {}
    for k in range(args.calibrate):
        for name in workloads:
            record = spawn(name, args.seed + k, args.seconds, 0, args.quick,
                           echo=False)
            if not record["correct"]:
                raise SystemExit(f"{name}: incorrect run, not calibrating")
            for metric, value in record["metrics"].items():
                values.setdefault(metric, {}).setdefault(name, []) \
                    .append(value)
            print(f"pass {k + 1}/{args.calibrate} {name} seed={args.seed + k}")
    end_to_end = []
    for metric in catalog.END_TO_END:
        worst = max(spread(v) for v in values[metric.name].values())
        bound = min(MAX_BOUND, max(metric.bound, SPREAD_FACTOR * worst))
        for name, series in values[metric.name].items():
            print(f"{metric.name:<18} {name:<14} median "
                  f"{statistics.median(series):>12.6g} {metric.unit:<8} "
                  f"spread {spread(series):.4f}")
        print(f"{metric.name:<18} bound {bound:.3f} (default "
              f"{metric.bound}, worst spread {worst:.4f})")
        end_to_end.append({"name": metric.name, "unit": metric.unit,
                           "better": metric.better,
                           "bound": round(bound, 3)})
    manifest = {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": int(args.seconds),
        "workloads": [{"name": name, "why": WORKLOADS[name].why}
                      for name in WORKLOADS],
        "end_to_end": end_to_end,
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in catalog.PER_LAYER],
    }
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {MANIFEST}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="host seconds to measure per pass: set-up and "
                         "exact pass repeat until then, three times at "
                         "least (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="run ONE pass of --workload in this process: "
                         "0 = untraced end-to-end, 1 = traced per-layer")
    ap.add_argument("--quick", action="store_true",
                    help="exact pass at 1/20 size, not repeated")
    ap.add_argument("--out", help="write the suite's results as JSON")
    ap.add_argument("--trace-out", help="write the traced pass's raw spans "
                                        "(JSON lines) when it ends")
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--calibrate", type=int, metavar="K", default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()

    # Imported here, not at the top: this is where a checkout without
    # the simulator's sources fails, before anything is printed.
    from workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        return run_one(args)
    if args.check_determinism:
        return check_determinism(args, workloads)
    if args.calibrate:
        if args.calibrate < 2:
            ap.error("--calibrate needs at least 2 passes to see a spread")
        return calibrate(args, workloads)
    return run_suite(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
