"""HL008: segment data moves as extents, not per-block loops.

The zero-copy data path keeps segment images as extent runs end to end:
``read_refs`` and ``writev`` (and the ``write_refs`` adapter) move whole
images as borrowed byte ranges, and the stores coalesce contiguous refs
into single extents as they adopt them.  Three patterns silently reintroduce the per-block
copies that path removed:

* a ``for``-loop over ``range(...)`` whose body issues block I/O
  (``read``/``write``/``is_written``/``read_refs``/``write_refs``/
  ``writev``) indexed by the loop variable against a store-
  or device-named receiver — the split-and-rejoin shape the vectored
  API replaces.  Loops whose calls ignore the loop variable (one whole
  image per replica, per volume, per retry) are not per-block and stay
  clean;

* reaching into a store's internals (``_blocks``, ``_extents``,
  ``_exts``, ``_starts``) outside ``repro.blockdev`` — code that walks
  the extent runs directly copies per block and depends on a layout
  only :class:`~repro.blockdev.extent.ExtentStore` may know;

* a ``for`` loop that constructs one :class:`ExtentRef` per iteration
  while also issuing store/device block I/O — the run-based helpers
  (``run_views``, one batched ``write_refs``/``writev``) move the whole
  run with O(runs) refs, so a ref-per-iteration loop is the per-block
  shape wearing zero-copy clothes.  Building the whole batch in a
  comprehension and handing it to *one* vectored call is the sanctioned
  form and stays clean, as do ``while`` loops that hand over one
  accumulated region per pass (the staging spill shape).

``repro.blockdev`` itself is exempt: the stores and devices are where
the per-block representation legitimately lives.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import terminal_attr

#: Receiver names that denote a block store or device.
_STORE_NAMES = frozenset({"store", "disk", "device", "dev", "drive",
                          "drives", "driver", "tape", "volume", "footprint",
                          "jukebox"})

#: Per-block data-path methods that should not sit inside a range loop.
_BLOCK_IO_METHODS = frozenset({"read", "write", "is_written", "writev",
                               "read_refs", "write_refs"})

#: Store-internal attributes that only repro.blockdev may touch.
_PRIVATE_STORE_ATTRS = frozenset({"_blocks", "_extents", "_exts",
                                  "_starts"})

_DEFAULT_EXEMPT: Tuple[str, ...] = (
    "repro.blockdev",
)


def _is_range_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range")


def _is_extentref_ctor(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "ExtentRef"
    return isinstance(func, ast.Attribute) and func.attr == "ExtentRef"


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _per_iteration_calls(loop: ast.For):
    """Calls executed once per iteration of ``loop``'s body.

    Calls nested inside comprehensions are excluded: a comprehension
    builds a whole batch in one statement, which is exactly the
    sanctioned run-based shape.
    """
    todo: List[ast.AST] = list(loop.body) + list(loop.orelse)
    while todo:
        node = todo.pop()
        if isinstance(node, _COMPREHENSIONS):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _target_names(target: ast.AST) -> FrozenSet[str]:
    """Names bound by a loop target (``i``, or ``i, j`` tuples)."""
    return frozenset(n.id for n in ast.walk(target)
                     if isinstance(n, ast.Name))


def _uses_names(call: ast.Call, names: FrozenSet[str]) -> bool:
    """True when any argument of ``call`` mentions one of ``names``."""
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id in names:
                return True
    return False


class HL008DatapathCopy(Rule):
    code = "HL008"
    name = "datapath-copy-discipline"
    rationale = ("per-block loops over device data and direct store "
                 "internals reintroduce the split-and-rejoin copies the "
                 "extent data path removes")
    exempt = _DEFAULT_EXEMPT

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.For):
                if _is_range_call(node.iter):
                    findings.extend(self._check_range_loop(sf, node))
                findings.extend(self._check_ref_loop(sf, node))
            elif isinstance(node, ast.Attribute):
                if node.attr in _PRIVATE_STORE_ATTRS:
                    receiver = terminal_attr(node.value)
                    if receiver in _STORE_NAMES:
                        findings.append(self.finding(
                            sf, node,
                            f"store internals "
                            f"'{receiver}.{node.attr}' accessed outside "
                            f"repro.blockdev; use the DataStore API "
                            f"(read_refs/write_refs/written_in_range)"))
        return findings

    def _check_range_loop(self, sf: SourceFile,
                          loop: ast.For) -> List[Finding]:
        findings: List[Finding] = []
        loop_vars = _target_names(loop.target)
        for call in ast.walk(loop):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _BLOCK_IO_METHODS:
                continue
            if not _uses_names(call, loop_vars):
                continue  # one whole transfer per iteration, not per-block
            receiver = terminal_attr(func.value)
            if receiver in _STORE_NAMES:
                findings.append(self.finding(
                    sf, call,
                    f"per-block loop calls "
                    f"'{receiver}.{func.attr}(...)' once per iteration; "
                    f"move the whole range with one vectored "
                    f"read_refs/writev call"))
        return findings

    def _check_ref_loop(self, sf: SourceFile,
                        loop: ast.For) -> List[Finding]:
        """Flag one-ExtentRef-per-iteration loops that also do block I/O."""
        ref_ctors = []
        does_block_io = False
        for call in _per_iteration_calls(loop):
            if _is_extentref_ctor(call):
                ref_ctors.append(call)
            elif isinstance(call.func, ast.Attribute) \
                    and call.func.attr in _BLOCK_IO_METHODS \
                    and terminal_attr(call.func.value) in _STORE_NAMES:
                does_block_io = True
        if not does_block_io:
            return []
        return [self.finding(
            sf, call,
            "loop constructs one ExtentRef per iteration next to "
            "store/device block I/O; build the whole run with "
            "run_views(...) or a comprehension and hand it to one "
            "vectored write_refs/writev call")
            for call in ref_ctors]
