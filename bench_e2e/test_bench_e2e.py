"""Self-test of the benchmark: ``python -m pytest bench_e2e -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  One
``run.py --quick`` suite run (five workloads, untraced + traced, a
twentieth of the ops) feeds every structural check below.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TERTIARY = ("core.service", "core.ioserver", "sched", "footprint",
            "blockdev.jukebox")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """(stdout, results JSON, path of the JSON) of one quick suite run."""
    out = tmp_path_factory.mktemp("bench_e2e") / "quick.json"
    proc = subprocess.run([sys.executable, RUN, "--quick", "--out", str(out)],
                          stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
    with open(out, encoding="utf-8") as fh:
        return proc.stdout, json.load(fh), str(out)


def sections(stdout):
    """{(workload, "untraced"|"traced"): [(name, value, unit), ...]}"""
    out, rows = {}, None
    for line in stdout.splitlines():
        head = re.match(r"^workload (\S+) \((untraced|traced)\) ", line)
        if head:
            rows = out.setdefault(head.groups(), [])
        elif rows is not None and re.match(r"^  \S+ +\S+ \S+ +\S+ +n=", line):
            name, value, unit = line.split()[:3]
            rows.append((name, float(value), unit))
    return out


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench_e2e"]
    assert manifest["command"] == ["python3", "bench_e2e/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert len(manifest["workloads"]) == 5
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 10) < 3420
    names = [w["name"] for w in manifest["workloads"]] + \
        [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_manifest_matches_the_catalog(manifest):
    sys.path.insert(0, HERE)
    import catalog
    for key, table in (("end_to_end", catalog.END_TO_END),
                       ("per_layer", catalog.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in manifest[key]] \
            == [(m.name, m.unit, m.better) for m in table]


def test_every_name_is_printed_once_with_its_unit(manifest, suite):
    printed = sections(suite[0])
    for w in manifest["workloads"]:
        for kind, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
            rows = printed[(w["name"], kind)]
            names = [name for name, _v, _u in rows]
            units = {name: unit for name, _v, unit in rows}
            for m in manifest[key]:
                assert names.count(m["name"]) == 1, (w["name"], m["name"])
                assert units[m["name"]] == m["unit"]
    assert len(printed) == 2 * len(manifest["workloads"])


def test_runs_are_correct_and_traced_pass_is_exact(suite):
    stdout, results, _path = suite
    assert "suite ok" in stdout and "MISMATCH" not in stdout
    for name, wl in results["workloads"].items():
        assert wl["failed"] == 0 and wl["attempted"] > 0, name
        assert all(v != 0 for v in wl["end_to_end"].values()), name


def test_self_shares_sum_to_the_traced_time(suite):
    for name, wl in suite[1]["workloads"].items():
        layers = {k[:-len(".self_us_per_op")]: v
                  for k, v in wl["per_layer"].items()
                  if k.endswith(".self_us_per_op")}
        total = wl["per_layer"]["bench_e2e.traced_host_s"] * 1e6 \
            / wl["traced_samples"]["host_ops"]
        assert sum(layers.values()) == pytest.approx(total, rel=0.01), name
        # The table covers the stack: what no span claims stays small
        # (it is a difference of noisy terms, so it may dip below 0).
        assert abs(layers["other"]) < 0.25 * total, name


def test_layers_run_only_where_the_workload_sends_them(suite):
    pl = {name: wl["per_layer"] for name, wl in suite[1]["workloads"].items()}
    for name in pl:
        assert (pl[name]["cluster.calls_per_op"] > 0) \
            == (name == "cluster_mixed")
        assert (pl[name]["lfs.cleaner.segments_cleaned"] > 0) \
            == (name == "write_churn")
    for name in ("read_hot", "read_disk"):
        assert pl[name]["core.service.demand_fetches"] == 0
        for layer in TERTIARY:
            assert pl[name][f"{layer}.calls_per_op"] == 0, (name, layer)
    assert pl["demand_cold"]["core.service.demand_fetches"] > 0
    for layer in TERTIARY:
        assert pl["demand_cold"][f"{layer}.calls_per_op"] > 0, layer
    hot, disk = pl["read_hot"], pl["read_disk"]
    assert hot["lfs.buffercache.hit_ratio"] >= 0.99
    assert hot["lfs.buffercache.evictions_per_op"] == 0
    assert hot["blockdev.disk.ops_per_op"] == 0
    assert disk["lfs.buffercache.evictions_per_op"] >= 10
    assert disk["blockdev.disk.ops_per_op"] >= 1


def test_compare_calls_identical_runs_unchanged(suite):
    path = suite[2]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), path, path],
        stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stdout
    words = [line.split()[-1] for line in proc.stdout.splitlines()[2:]]
    assert words and set(words) <= {"unchanged", "unresolved"}


def test_compare_verdicts():
    sys.path.insert(0, HERE)
    from compare import verdict
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(parent, [p * 1.2 for p in parent], "higher", 0.1)[0] \
        == "better"
    assert verdict(parent, [p * 0.8 for p in parent], "higher", 0.1)[0] \
        == "worse"
    assert verdict(parent, [p * 0.8 for p in parent], "lower", 0.1)[0] \
        == "better"
    assert verdict(parent, [p * 0.97 for p in parent], "higher", 0.1)[0] \
        == "unchanged"
    noisy = [100.0, 140.0, 70.0, 125.0, 80.0, 100.0, 130.0, 75.0, 110.0, 90.0]
    assert verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"


def test_tracer_self_inclusive_and_busy_arithmetic():
    sys.path.insert(0, HERE)
    import types
    from tracer import Tracer
    toy = types.ModuleType("bench_e2e_toy")
    sys.modules["bench_e2e_toy"] = toy
    exec("import time\n"
         "def leaf():\n    time.sleep(0.002)\n"
         "def inner():\n    leaf(); leaf()\n"
         "def outer():\n    time.sleep(0.002); inner(); inner()\n"
         "def steps():\n    leaf(); yield; leaf(); yield\n", toy.__dict__)
    tracer = Tracer({"a": ["bench_e2e_toy:outer", "bench_e2e_toy:gone"],
                     "b": ["bench_e2e_toy:inner", "bench_e2e_toy:steps"],
                     "c": ["bench_e2e_toy:leaf"]}, busy_layers=("a", "b"))
    assert tracer.unresolved == {"a": ["bench_e2e_toy:gone"]}
    tracer.install()
    toy.outer()
    assert list(toy.steps()) == [None, None]
    tracer.uninstall()
    assert toy.outer.__name__ == "outer" and not hasattr(toy.outer,
                                                        "__wrapped__")
    totals = tracer.totals()
    assert dict(zip(tracer.names, totals["calls"])) == {
        "bench_e2e_toy:outer": 1, "bench_e2e_toy:inner": 2,
        "bench_e2e_toy:steps": 3, "bench_e2e_toy:leaf": 6}
    self_ns = tracer.by_layer(totals["self_ns"])
    incl = dict(zip(tracer.layer_names, totals["layer_incl_ns"]))
    busy = dict(zip(tracer.layer_names, totals["busy_ns"]))
    ms = 1e6
    assert self_ns["c"] == incl["c"] >= 6 * 2 * ms
    assert 2 * ms <= self_ns["a"] < incl["a"]
    # Self times partition the traced time; busy charges the innermost
    # span of the busy group, so a's busy time excludes b's inside it.
    steps_incl = tracer.of(totals["incl_ns"], "bench_e2e_toy:steps")
    assert sum(self_ns.values()) == incl["a"] + steps_incl
    assert busy["a"] + busy["b"] == incl["a"] + steps_incl
    assert busy["a"] == self_ns["a"] and busy["c"] == 0
    # With a per-span cost of 100 ns, 40 of them inside the span: a leaf
    # loses 40 per call, outer loses 40 and 60 for each of its two
    # children, and a's one outermost span loses 100 per descendant.
    fixed = tracer.totals(per_span=100, inside=40)
    assert tracer.by_layer(fixed["self_ns"])["c"] == self_ns["c"] - 40 * 6
    assert tracer.by_layer(fixed["self_ns"])["a"] \
        == self_ns["a"] - 40 - 60 * 2
    assert dict(zip(tracer.layer_names, fixed["layer_incl_ns"]))["a"] \
        == incl["a"] - 100 * 6
    assert sum(fixed["self_ns"]) == sum(totals["self_ns"]) \
        - 100 * tracer.span_count + 60 * 4


def test_exits_nonzero_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and bench_e2e/ there is
    nothing to measure: no result may be printed."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "read_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
