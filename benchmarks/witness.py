#!/usr/bin/env python3
"""One behaviour witness: every deterministic output in ``WITNESS.json``.

    python3 benchmarks/witness.py

Runs every table and figure in ``repro.bench.__main__.RUNNERS`` and every
scenario in ``scenarios.SCENARIOS`` (quick; a seeded one at seeds 7 and 42
too) in this process, ``obs.reset()`` before each, then ``bench_e2e/run.py
--quick`` at seeds 1993, 7 and 42.  Each artifact is one entry: its table
cells at ``repr`` precision with paper value and ratio, the scalars of its
data or facts, or its exact record; plus sha256 digests of the report and
of the obs snapshot (written under ``REPRO_OBS_DIR``, as the CLI does).
No host-clock number enters the file.  Rewrites ``WITNESS.json``, prints
each key that changed, appeared or disappeared, and exits 1 if any did, if
a default-seed scenario fails its gate, a figure fact fails, or a
``run.py`` pass is incorrect or finds a layer boundary gone.  A raise at
seed 7 or 42 is that entry's value.  A change meant to move behaviour
commits the regenerated file: that diff is its review.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.bench import harness, scenarios  # noqa: E402
from repro.bench.__main__ import RUNNERS  # noqa: E402

WITNESS = ROOT / "WITNESS.json"
SCENARIO_SEEDS = (7, 42)
E2E_SEEDS = (1993, 7, 42)
GONE = "boundary callable(s) no longer resolve"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scalars(value, prefix=""):
    """Every scalar under nested dicts and lists, keyed by dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return {prefix[:-1]: value}
    return {k: v for key, sub in items
            for k, v in scalars(sub, f"{prefix}{key}.").items()}


def observed(entry, report, name, header):
    """Add the report's and the CLI-equal obs snapshot's digests."""
    path = harness.dump_observability(name, header=header)
    entry["report_sha256"] = sha256(str(report).encode())
    entry["obs_sha256"] = sha256(Path(path).read_bytes())
    return entry


def paper(name, failures):
    obs.reset()
    result = RUNNERS[name]()
    if name.startswith("table"):
        result = result[1]
        entry = {f"{c.label}: {field}": getattr(c, field)
                 for c in result.comparisons
                 for field in ("paper", "measured", "ratio")}
    else:
        entry = scalars(result.facts)
        failures += [f"{name}: fact {k} failed"
                     for k, v in result.facts.items() if not v]
    return observed(entry, result, name,
                    {"experiment": name, "quick": False})


def scenario(name, seed):
    """``(entry, data)``; a raise is the entry, with ``data`` None."""
    obs.reset()
    try:
        data, report = scenarios.SCENARIOS[name](quick=True, seed=seed)
    except Exception as exc:  # the gate's verdict is what is witnessed
        if seed is None:
            traceback.print_exc()
        return {"raised": f"{type(exc).__name__}: {exc}"}, None
    used = seed if seed is not None else data.get("seed")
    header = {"scenario": name, "quick": True,
              "seed": None if used is None else int(used)}
    snap = f"scenario_{name}" + ("" if seed is None else f"_{seed}")
    return observed(scalars(data), report, snap, header), data


def e2e(seed, work, witness, failures):
    out = Path(work) / f"e2e_{seed}.json"
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--quick", "--seed", str(seed),
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    bad = ([f"run.py --seed {seed} exited {proc.returncode}"]
           if proc.returncode else [])
    if GONE in proc.stdout:
        bad.append(f"run.py --seed {seed}: a layer boundary in "
                   f"bench_e2e/layers.py no longer resolves")
    if bad:
        print(proc.stdout, end="")
    failures += bad
    if out.exists():
        for workload, rec in json.loads(out.read_text())["workloads"].items():
            exact = dict(rec["exact"])
            counts = exact.pop("counts")
            exact.update((f"counts[{k}]", v) for k, v in counts.items())
            witness[f"{workload}@{seed}"] = scalars(exact)


def flat(witness):
    return {f"{name} | {key}": json.dumps(value)
            for name, entry in witness.items() for key, value in entry.items()}


def main() -> int:
    witness, failures = {}, []
    for name in RUNNERS:
        witness[name] = paper(name, failures)
    for name in scenarios.SCENARIOS:
        witness[name], data = scenario(name, None)
        if data is None:
            failures.append(f"scenario {name}: {witness[name]['raised']}")
        elif "seed" in data:
            for seed in SCENARIO_SEEDS:
                witness[f"{name}@{seed}"] = scenario(name, seed)[0]
    with tempfile.TemporaryDirectory(prefix="witness-") as work:
        for seed in E2E_SEEDS:
            e2e(seed, work, witness, failures)

    old = (flat(json.loads(WITNESS.read_text(encoding="utf-8")))
           if WITNESS.exists() else {})
    new = flat(witness)
    moved = [k for k in sorted(old.keys() | new.keys())
             if old.get(k) != new.get(k)]
    with open(WITNESS, "w", encoding="utf-8") as fh:
        json.dump(witness, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    for key in moved:
        print(f"  {key}: {old.get(key, '(absent)')} → "
              f"{new.get(key, '(absent)')}")
    print(f"witness: {len(new)} values in {len(witness)} entries, "
          f"{len(moved)} moved")
    for failure in failures:
        print("witness: " + failure, file=sys.stderr)
    return 1 if moved or failures else 0


if __name__ == "__main__":
    sys.exit(main())
