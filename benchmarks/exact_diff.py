#!/usr/bin/env python3
"""Diff the exact records of ``bench_e2e/run.py --out`` files.

    python3 benchmarks/exact_diff.py P.json C.json [P2.json C2.json ...]

Files come in (parent, change) pairs of one seed.  Per workload, prints
every exact key (digest, virtual latencies, ``io_amp``, ...) and every obs
series that differs or is on one side only; exits 1 if any does.
"""
import json
import sys


def exact(path):
    """``(seed, workload) -> {name: value}``, obs series flattened in."""
    with open(path, encoding="utf-8") as fh:
        run = json.load(fh)
    return {(run["seed"], wl): {
        **{k: v for k, v in rec["exact"].items() if k != "counts"},
        **{f"counts[{k}]": v for k, v in rec["exact"]["counts"].items()}}
        for wl, rec in run["workloads"].items()}


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__)
        return 2
    differing = 0
    for parent, change in zip(map(exact, argv[0::2]), map(exact, argv[1::2])):
        for key in sorted(set(parent) | set(change)):
            p, c = parent.get(key, {}), change.get(key, {})
            bad = [k for k in sorted(set(p) | set(c)) if p.get(k) != c.get(k)]
            for k in bad:
                print(f"{key}: {k}: {p.get(k)!r} != {c.get(k)!r}")
            print(f"{key}: {len(p)} exact values, {len(bad)} differ")
            differing += len(bad) + (not p) + (not c)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
