#!/usr/bin/env python3
"""Seeded mutants: does tier-1, or the HL rule that owns the bug class,
catch each one?

    python3 benchmarks/mutants.py [--seed N]

Six kinds, each the bug class of one contract, written at every site of
that class in ``src``:

* ``borrow``  (three mutants per site) at each ``read_refs``,
  ``dev_read_refs`` or ``line_read_refs`` call whose result is bound to
  a name, outside the modules that implement the lending protocol.  An
  ``ast.NodeTransformer`` writes one mutant per escape kind: ``self``
  memoizes the refs on the instance, keyed by the receiver and the block
  range, and a later call with the same range returns the kept refs (the
  read still runs, so virtual time does not move); ``global`` does the
  same in a module-level dict; ``mutation`` writes one byte through the
  first ref's view (the seed picks the offset and the XOR mask).
* ``event``   at each ``obs.event(EV_X, ...)`` call: ``EV_X`` becomes the
  string it names with one seeded character changed, the misspelling
  ``TraceRecorder.emit`` must reject.
* ``label``   at each ``.labels(k=v, ...)`` call outside
  ``obs/registry.py``: the keywords are spelled as ``**{...}`` with one
  seeded label name misspelled, which ``MetricFamily.labels`` must
  reject.
* ``domain``  at each ``line_base = <aspace>.seg_base(disk_segno)``
  binding outside ``core/addressing.py``: the line's base is computed by
  hand from the function's tertiary segment number, ``tsegno *
  blocks_per_seg``, which the line-I/O range check must reject.
* ``perblock`` at each ``read_refs(..., n)`` call outside
  ``repro.blockdev`` whose block count is not a literal: the range is
  read by a loop over ``range(n)`` of one-block calls (HL008's shape).
* ``retry``   at each Footprint read or write call outside
  ``repro.faults``: the statement runs in HL009's blind-retry loop,
  ``while True`` with ``except TransientMediaError: continue``.

Each mutant runs tier-1 with ``-x`` (the borrow sanitizer is armed by
``tests/conftest.py``), leaving out the analysis suite's own tests, in a
scratch copy of the repository; a control run of the unmutated, re-
printed sources must pass first, and a mutant's run is stopped after
``TIMEOUT_FACTOR`` times the control run's time.  A ``borrow``,
``event``, ``label`` or ``domain`` mutant is caught only if tier-1 fails.
A ``perblock`` or ``retry`` mutant that tier-1 passes (or that times
out: a hung run is not a failing test) is caught if its kind's rule,
HL008 or HL009, flags the mutated file.  Prints one row per mutant with
what caught it (the first failing test and its exception, or the rule),
and exits 1 if any mutant escapes.
"""
import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BORROWERS = {"read_refs", "dev_read_refs", "line_read_refs"}
#: The lending protocol's implementation, which retains refs by design.
LENDERS = {"blockdev/datapath.py", "blockdev/extent.py", "blockdev/base.py",
           "analysis/sanitize.py"}
ESCAPES = ("self", "global", "mutation")
#: The kinds a rule may catch instead of tier-1, and that rule.
RULES = {"perblock": "HL008", "retry": "HL009"}
FOOTPRINT_VERBS = {"read", "write", "read_refs", "write_refs", "writev"}
ANALYSIS_TESTS = ("tests/test_analysis.py", "tests/test_analysis_clean.py")
LETTERS = "abcdefghijklmnopqrstuvwxyz"
TIMEOUT_FACTOR = 3

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


def modules(skip=()):
    """``[(path, its source, its tree)]`` of ``src``, in path order,
    without the modules under the ``skip`` prefixes."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        if not path.relative_to(SRC).as_posix().startswith(tuple(skip)):
            text = path.read_text(encoding="utf-8")
            out.append((path, text, ast.parse(text)))
    return out


def sites():
    """``[(path, site)]`` of every borrow site, in path order."""
    out = []
    for path, _, tree in modules(LENDERS):
        finder = Mutator()
        finder.visit(tree)
        out += [(path, site) for site in finder.sites]
    return out


def render(path, target=None, kind=None, rng=None):
    tree = Mutator(target, kind, rng).visit(
        ast.parse(path.read_text(encoding="utf-8")))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n" + HELPERS


# -- source-level mutants -----------------------------------------------------
#
# The other kinds edit the original text (comments and ``# noqa`` stay),
# at offsets taken from the parsed tree.

def start(node):
    return node.lineno, node.col_offset


def end(node):
    return node.end_lineno, node.end_col_offset


def _offset(lines, lineno, col):
    """Character offset in the text split into ``lines`` of an AST
    ``(line, column)`` position, whose column counts UTF-8 bytes."""
    return sum(map(len, lines[:lineno - 1])) + (
        len(lines[lineno - 1].encode()[:col].decode()) if col else 0)


def edit(text, *changes):
    """``text`` with each ``(start, end, new)`` change applied: the text
    between the two AST positions becomes ``new``."""
    lines = text.splitlines(keepends=True)
    for first, last, new in sorted(
            ((_offset(lines, *a), _offset(lines, *b), new)
             for a, b, new in changes), reverse=True):
        text = text[:first] + new + text[last:]
    return text


def typo(value, known, rng):
    """``value`` with one seeded character replaced, not in ``known``."""
    while True:
        at = rng.randrange(len(value))
        out = (value[:at] + rng.choice(LETTERS.replace(value[at], ""))
               + value[at + 1:])
        if out not in known:
            return out


def _calls(tree):
    """Every call in ``tree``, in source order."""
    return sorted((node for node in ast.walk(tree)
                   if isinstance(node, ast.Call)), key=start)


def _statement_calls(tree):
    """``(simple statement, call)`` for every call in a statement that
    holds no other statement, in source order."""
    return sorted(((stmt, node) for stmt in ast.walk(tree)
                   if isinstance(stmt, (ast.Return, ast.Assign, ast.Expr))
                   for node in ast.walk(stmt) if isinstance(node, ast.Call)),
                  key=lambda pair: start(pair[1]))


def _name(path, node, what):
    return f"{path.relative_to(SRC).as_posix()}:{node.lineno} {what}"


def _event_value(node):
    """The type string an ``EV_X = "x"`` or ``EV_X =
    register_event_type("x")`` assignment names, else None."""
    if isinstance(node, ast.Call) and node.args:
        node = node.args[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def event_mutants(rng):
    """One misspelled-type mutant per ``obs.event`` call."""
    values, calls = {}, []
    for path, text, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and getattr(node.targets[0], "id", "").startswith("EV_")
                    and _event_value(node.value) is not None):
                values[node.targets[0].id] = _event_value(node.value)
            elif (isinstance(node, ast.Call) and node.args
                  and ast.unparse(node.func) == "obs.event"):
                calls.append((path, text, node.args[0]))
    known = set(values.values())
    out = []
    for path, text, arg in sorted(calls, key=lambda c: (c[0], c[2].lineno)):
        name = arg.id if isinstance(arg, ast.Name) else arg.attr
        out.append((path, _name(path, arg, name), edit(
            text, (start(arg), end(arg), repr(typo(values[name], known,
                                                   rng))))))
    return out


def label_mutants(rng):
    """One misspelled-label-name mutant per keyword ``.labels`` call."""
    out = []
    for path, text, tree in modules(("obs/registry.py",)):
        for call in _calls(tree):
            if not (getattr(call.func, "attr", None) == "labels"
                    and call.keywords and not call.args
                    and all(kw.arg for kw in call.keywords)):
                continue
            names = [kw.arg for kw in call.keywords]
            wrong = rng.randrange(len(names))
            names[wrong] = typo(names[wrong], set(names), rng)
            spread = ", ".join(
                f"{name!r}: {ast.get_source_segment(text, kw.value)}"
                for name, kw in zip(names, call.keywords))
            out.append((path, _name(path, call, ".labels"), edit(
                text, (start(call.keywords[0]), end(call.keywords[-1]),
                       f"**{{{spread}}}"))))
    return out


def domain_mutants():
    """A hand-computed line base at each ``seg_base`` binding."""
    out = []
    for path, text, tree in modules(("core/addressing.py",)):
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            tseg = [a.arg for a in func.args.args if a.arg.endswith("tsegno")]
            for node in func.body:
                value = getattr(node, "value", None)
                if (tseg and isinstance(node, ast.Assign)
                        and getattr(node.targets[0], "id", "") == "line_base"
                        and isinstance(value, ast.Call)
                        and getattr(value.func, "attr", "") == "seg_base"):
                    aspace = ast.get_source_segment(text, value.func.value)
                    out.append((path, _name(path, node, func.name), edit(
                        text, (start(value), end(value),
                               f"{tseg[0]} * {aspace}.blocks_per_seg"))))
    return out


def perblock_mutants():
    """A per-block ``range`` loop at each counted ``read_refs`` call."""
    out = []
    for path, text, tree in modules(("blockdev/",)):
        for stmt, call in _statement_calls(tree):
            if not (getattr(call.func, "attr", None) == "read_refs"
                    and len(call.args) >= 2
                    and not isinstance(call.args[-1], ast.Constant)):
                continue
            src = [ast.get_source_segment(text, a) for a in call.args]
            recv = ast.get_source_segment(text, call.func.value)
            pad = " " * stmt.col_offset
            loop = (f"{pad}_mutant_refs = []\n"
                    f"{pad}for _mutant_i in range({src[-1]}):\n"
                    f"{pad}    _mutant_refs.extend({recv}.read_refs("
                    f"{''.join(a + ', ' for a in src[:-2])}"
                    f"{src[-2]} + _mutant_i, 1))\n")
            line = (stmt.lineno, 0)
            out.append((path, _name(path, call, "read_refs"), edit(
                text, (line, line, loop),
                (start(call), end(call), "_mutant_refs"))))
    return out


def retry_mutants():
    """HL009's blind-retry loop around each Footprint read or write."""
    out = []
    for path, text, tree in modules(("faults/",)):
        lines = text.splitlines(keepends=True)
        for stmt, call in _statement_calls(tree):
            func = call.func
            if not (getattr(func, "attr", None) in FOOTPRINT_VERBS
                    and getattr(func.value, "id",
                                getattr(func.value, "attr", None))
                    == "footprint"):
                continue
            pad = " " * stmt.col_offset
            body = "".join(" " * 8 + line
                           for line in lines[stmt.lineno - 1:stmt.end_lineno])
            if not isinstance(stmt, ast.Return):
                body += f"{pad}        break\n"
            loop = (f"{pad}while True:\n{pad}    try:\n{body}"
                    f"{pad}    except TransientMediaError:\n"
                    f"{pad}        continue\n")
            out.append((path, _name(path, call, f"footprint.{func.attr}"),
                        edit(text, ((stmt.lineno, 0),
                                    (stmt.end_lineno + 1, 0), loop))
                        + "from repro.errors import TransientMediaError\n"))
    return out


# -- running ------------------------------------------------------------------

def tier1(copy, timeout=None):
    """``(verdict, "first failing test (its exception)")`` of a ``-x``
    tier-1 run in ``copy``; the verdict is ``passed``, ``killed`` or
    ``timeout``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
         *[f"--ignore={t}" for t in ANALYSIS_TESTS], "tests"],
        cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # Wide enough that pytest's summary line keeps the exception.
        env={**os.environ, "PYTHONPATH": str(copy / "src"),
             "COLUMNS": "1000"},
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", f"no result in {timeout:.0f} s"
    failed = [ln.split(" ", 1)[1] for ln in out.splitlines()
              if ln.startswith(("FAILED ", "ERROR "))]
    if not failed:
        return ("passed" if proc.returncode == 0 else "killed"), ""
    # The summary line names the exception the test died of last, not
    # one it raised while handling.
    test, _, why = failed[0].partition(" - ")
    raised = why.split(" ", 1)[0]
    kind = raised.rstrip(":").rsplit(".", 1)[-1] if raised.endswith(":") \
        else "assert"
    return "killed", f"{test} ({kind})"


def flags(copy, target, code):
    """True if rule ``code`` reports a finding in ``target``."""
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(target),
         "--select", code], cwd=copy, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(copy / "src")}).returncode == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993)
    seed = parser.parse_args(argv).seed
    rng = random.Random(seed)
    found = sites()
    mutants = [("borrow", path,
                f"{path.relative_to(SRC).as_posix()} {site} {escape}",
                render(path, site, escape, rng))
               for path, site in found for escape in ESCAPES]
    mutants += [("event", *m) for m in event_mutants(rng)]
    mutants += [("label", *m) for m in label_mutants(rng)]
    mutants += [("domain", *m) for m in domain_mutants()]
    mutants += [("perblock", *m) for m in perblock_mutants()]
    mutants += [("retry", *m) for m in retry_mutants()]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            "obs-snapshots"))
        for path in {path for path, _ in found}:
            target = copy / path.relative_to(ROOT)
            target.write_text(render(path), encoding="utf-8")
        began = time.monotonic()
        verdict, failed = tier1(copy)
        if verdict != "passed":
            print(f"control run failed ({failed}): the re-printed sources "
                  f"do not pass tier-1")
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - began)
        tally = {}
        for kind, path, name, text in mutants:
            target = copy / path.relative_to(ROOT)
            before = target.read_text(encoding="utf-8")
            target.write_text(text, encoding="utf-8")
            verdict, by = tier1(copy, timeout)
            if verdict != "killed" and kind in RULES \
                    and flags(copy, target, RULES[kind]):
                by = RULES[kind] + (f"; tier-1 {verdict}"
                                    if verdict == "timeout" else "")
                verdict = "flagged"
            target.write_text(before, encoding="utf-8")
            if verdict not in ("killed", "flagged"):
                verdict = verdict.upper()
            tally[verdict] = tally.get(verdict, 0) + 1
            print(f"{name:60s} {kind:8s} {verdict:8s} {by}", flush=True)
    print(f"seed {seed}: {len(mutants)} mutants, "
          + ", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    return 1 if set(tally) - {"killed", "flagged"} else 0


if __name__ == "__main__":
    sys.exit(main())
