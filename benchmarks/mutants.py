#!/usr/bin/env python3
"""Seeded mutants: does tier-1 catch a kept extent borrow or a misspelled
trace event?

    python3 benchmarks/mutants.py [--seed N]

A *borrow site* is a ``read_refs``, ``dev_read_refs`` or
``line_read_refs`` call in ``src`` whose result is bound to a name,
outside the modules that implement the lending protocol itself.  At each
site an ``ast.NodeTransformer`` writes one mutant per escape kind:

* ``self``     the refs are memoized on the instance, keyed by the
               receiver and the block range, and a later call with the
               same range returns the kept refs (the read still runs, so
               virtual time does not move);
* ``global``   the same, in a module-level dict;
* ``mutation`` one byte is written through the first ref's view (the
               seed picks the offset and the XOR mask).

An *event site* is an ``obs.event(EV_X, ...)`` call in ``src``.  Its one
``event`` mutant replaces ``EV_X`` with the string ``EV_X`` names, one
seeded character changed: the misspelling the runtime taxonomy check in
``TraceRecorder.emit`` must reject on whatever test reaches the site.

Each mutant runs tier-1 with ``-x`` (the borrow sanitizer is armed by
``tests/conftest.py``), leaving out the analysis suite's own tests, in a
scratch copy of the repository; a control run of the unmutated, re-
printed sources must pass first.  Prints a killed/survived table, with
the first failing test and its exception, and exits 1 if any mutant
survives.  (An equivalent mutant would be one whose range is never
rewritten while the kept borrow lives; at seed 1993 there are none.)
"""
import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BORROWERS = {"read_refs", "dev_read_refs", "line_read_refs"}
#: The lending protocol's implementation, which retains refs by design.
LENDERS = {"blockdev/datapath.py", "blockdev/extent.py", "blockdev/base.py",
           "analysis/sanitize.py"}
KINDS = ("self", "global", "mutation")
ANALYSIS_TESTS = ("tests/test_analysis.py", "tests/test_analysis_clean.py")
LETTERS = "abcdefghijklmnopqrstuvwxyz"

HELPERS = '''

_MUTANT_MEMO = {}


def _mutant_keep(memo, recv, key, refs):
    return memo.setdefault((id(recv),) + key, (recv, refs))[1]


def _mutant_poke(refs, off, mask):
    if refs and len(refs[0]):
        view = refs[0].view()
        view[off % len(view)] ^= mask
'''


def _borrow_call(node):
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr",
                        getattr(node.value.func, "id", None)) in BORROWERS)


class Mutator(ast.NodeTransformer):
    """Find the borrow sites of one module; with ``target`` set, rewrite
    that site as the ``kind`` mutant."""

    def __init__(self, target=None, kind=None, rng=None):
        self.target, self.kind, self.rng = target, kind, rng
        self.scope, self.sites = [], []

    def _visit_scope(self, node):
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_ClassDef = visit_FunctionDef = _visit_scope

    def visit_Assign(self, node):
        if not _borrow_call(node):
            return node
        site = ".".join(n.name for n in self.scope)
        self.sites.append(site)
        if site != self.target:
            return node
        name, call = node.targets[0].id, node.value
        if self.kind == "mutation":
            extra = (f"_mutant_poke({name}, {self.rng.randrange(1 << 16)},"
                     f" {self.rng.randrange(1, 256)})")
        else:
            recv = (ast.unparse(call.func.value)
                    if isinstance(call.func, ast.Attribute) else "None")
            key = "".join(ast.unparse(a) + ", " for a in call.args
                          if not (isinstance(a, ast.Name)
                                  and a.id == "actor"))
            args = self.scope[-1].args.args
            memo = "_MUTANT_MEMO" if self.kind == "global" else (
                f"vars({args[0].arg}).setdefault('_mutant_memo', {{}})")
            extra = f"{name} = _mutant_keep({memo}, {recv}, ({key}), {name})"
        return [node] + ast.parse(extra).body


def sites():
    """``[(path, site)]`` of every borrow site, in path order."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() in LENDERS:
            continue
        finder = Mutator()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        out += [(path, site) for site in finder.sites]
    return out


def _event_value(node):
    """The type string an ``EV_X = "x"`` or ``EV_X =
    register_event_type("x")`` assignment names, else None."""
    if isinstance(node, ast.Call) and node.args:
        node = node.args[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def event_sites():
    """``[(path, arg node, EV_ name, its string)]`` of every
    ``obs.event`` call in ``src``, in path and line order."""
    values, calls = {}, []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and getattr(node.targets[0], "id", "").startswith("EV_")
                    and _event_value(node.value) is not None):
                values[node.targets[0].id] = _event_value(node.value)
            elif (isinstance(node, ast.Call) and node.args
                  and ast.unparse(node.func) == "obs.event"):
                calls.append((path, node.args[0]))
    sites = []
    for path, arg in sorted(calls, key=lambda c: (c[0], c[1].lineno)):
        name = arg.id if isinstance(arg, ast.Name) else arg.attr
        sites.append((path, arg, name, values[name]))
    return sites


def misspell(path, arg, value, known, rng):
    """The source of ``path`` with the ``EV_`` argument ``arg`` replaced
    by ``value`` with one seeded character changed."""
    while True:
        at = rng.randrange(len(value))
        typo = (value[:at] + rng.choice(LETTERS.replace(value[at], ""))
                + value[at + 1:])
        if typo not in known:
            break
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line = lines[arg.lineno - 1]
    lines[arg.lineno - 1] = (line[:arg.col_offset] + repr(typo)
                             + line[arg.end_col_offset:])
    return "".join(lines)


def render(path, target=None, kind=None, rng=None):
    tree = Mutator(target, kind, rng).visit(
        ast.parse(path.read_text(encoding="utf-8")))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n" + HELPERS


def tier1(copy):
    """``(passed, "first failing test (its exception)")`` of a ``-x``
    tier-1 run in ``copy``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
         *[f"--ignore={t}" for t in ANALYSIS_TESTS], "tests"],
        cwd=copy, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(copy / "src")})
    lines = proc.stdout.splitlines()
    failed = [ln.split()[1] for ln in lines
              if ln.startswith(("FAILED ", "ERROR "))]
    if not failed:
        return proc.returncode == 0, ""
    error = next((ln.split()[1] for ln in lines
                  if ln.startswith("E ") and ln[1:].strip()), "")
    kind = error.rstrip(":").rsplit(".", 1)[-1] if error.endswith(":") \
        else "assert"
    return False, f"{failed[0]} ({kind})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993)
    seed = parser.parse_args(argv).seed
    rng = random.Random(seed)
    found = sites()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            "obs-snapshots"))
        for path in {path for path, _ in found}:
            target = copy / path.relative_to(ROOT)
            target.write_text(render(path), encoding="utf-8")
        ok, failed = tier1(copy)
        if not ok:
            print(f"control run failed ({failed}): the re-printed sources "
                  f"do not pass tier-1")
            return 2
        verdicts = []

        def trial(path, text, name, kind):
            target = copy / path.relative_to(ROOT)
            before = target.read_text(encoding="utf-8")
            target.write_text(text, encoding="utf-8")
            passed, failed = tier1(copy)
            target.write_text(before, encoding="utf-8")
            verdict = "SURVIVED" if passed else "killed"
            verdicts.append(verdict)
            print(f"{name:52s} {kind:8s} {verdict:8s} {failed}", flush=True)

        for path, site in found:
            for kind in KINDS:
                trial(path, render(path, site, kind, rng),
                      f"{path.relative_to(SRC).as_posix()} {site}", kind)
        events = event_sites()
        known = {value for _, _, _, value in events}
        for path, arg, name, value in events:
            trial(path, misspell(path, arg, value, known, rng),
                  f"{path.relative_to(SRC).as_posix()}:{arg.lineno} {name}",
                  "event")
    survivors = verdicts.count("SURVIVED")
    print(f"seed {seed}: {len(verdicts)} mutants at "
          f"{len(found) + len(events)} sites, "
          f"{len(verdicts) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
