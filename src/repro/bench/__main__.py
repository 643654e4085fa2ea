"""Regenerate every paper table and figure from the command line.

Usage:
    python3 -m repro.bench                        # everything
    python3 -m repro.bench table2 fig4            # a selection
    python3 -m repro.bench --scenario contention  # mixed-load scenarios
    python3 -m repro.bench --scenario frontend --seed 7  # reseed the run
    python3 -m repro.bench --scenario crashes --quick    # a scenario's short form
    python3 -m repro.bench --list-scenarios       # what --scenario accepts
"""

from __future__ import annotations

import sys

from repro import obs
from repro.bench import figures, harness, scenarios, tables

RUNNERS = {
    "table1": tables.run_table1,
    "table2": tables.run_table2,
    "table3": tables.run_table3,
    "table4": tables.run_table4,
    "table5": tables.run_table5,
    "table6": tables.run_table6,
    "fig1": figures.figure1,
    "fig2": figures.figure2,
    "fig3": figures.figure3,
    "fig4": figures.figure4,
    "fig5": figures.figure5,
}


def main(argv: list[str]) -> int:
    args = list(argv)
    quick = "--quick" in args
    if quick:
        args.remove("--quick")
    seed: int | None = None
    if "--seed" in args:
        idx = args.index("--seed")
        try:
            seed = int(args[idx + 1])
        except (IndexError, ValueError):
            print("--seed needs an integer")
            return 2
        del args[idx:idx + 2]
    if "--list-scenarios" in args:
        args.remove("--list-scenarios")
        if args:
            print("--list-scenarios takes no other arguments, "
                  f"got: {', '.join(args)}")
            return 2
        for name, runner in scenarios.SCENARIOS.items():
            doc = (runner.__doc__ or "").strip().split("\n")[0]
            print(f"{name:12s} {doc}")
        return 0
    scenario_names: list[str] = []
    while "--scenario" in args:
        idx = args.index("--scenario")
        try:
            name = args[idx + 1]
        except IndexError:
            print("--scenario needs a name; "
                  f"available: {', '.join(scenarios.SCENARIOS)}")
            return 2
        # A scenario named twice runs once: repeated runs of the same
        # seeded scenario add nothing, and the second obs.reset() would
        # wipe the first run's snapshot context anyway.
        if name not in scenario_names:
            scenario_names.append(name)
        del args[idx:idx + 2]
    unknown = [n for n in scenario_names if n not in scenarios.SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}")
        print(f"available: {', '.join(scenarios.SCENARIOS)}")
        return 2

    names = args or (list(RUNNERS) if not scenario_names else [])
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(RUNNERS)}")
        return 2
    failures = 0
    for name in scenario_names:
        obs.reset()
        data, report = scenarios.SCENARIOS[name](quick=quick, seed=seed)
        # The seed the run actually used: the CLI one, else whatever
        # default the scenario reports back (flat-dict scenarios record
        # it under "seed"; nested ones draw no random numbers).
        used = seed if seed is not None else data.get("seed")
        header = {"scenario": name, "quick": quick,
                  "seed": None if used is None else int(used)}
        snap_path = harness.dump_observability(f"scenario_{name}",
                                               header=header)
        print(report)
        print(f"  observability snapshot: {snap_path}")
        print()
    for name in names:
        obs.reset()
        result = RUNNERS[name]()
        snap_path = harness.dump_observability(
            name, header={"experiment": name, "quick": quick})
        if name.startswith("table"):
            _data, report = result
            print(report)
        else:
            print(result)
            bad = {k: v for k, v in result.facts.items() if not v}
            if bad:
                print(f"  FAILED facts: {bad}")
                failures += 1
            else:
                print("  all structural facts hold")
        print(f"  observability snapshot: {snap_path}")
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
