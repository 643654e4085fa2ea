"""In-function dataflow: name bindings and borrow taint/escape analysis.

This is deliberately a *small* framework: flow-insensitive over two
passes (so loop-carried taint converges) with no path conditions.  That
is the right precision for the HL rules — they flag structural shapes
(a borrow stored on ``self``, a view mutated, a borrow returned), not
value-dependent behavior — and it keeps a whole-tree run well under the
CI time budget.

Taint model (consumed by HL011 and by the summary extractor):

* a **borrow** is the result of a store/device ``read_refs`` call, of a project function known (via the index fixpoint) to return
  borrows, or of a pass-through helper (``block_views``/``split_parts``)
  applied to a borrow;
* a **view** is a mutable window on a borrow: ``ref.buf``, the result of
  ``ref.view()``, or an element of a view container;
* containers become tainted when a borrow is ``append``/``extend``/
  ``insert``-ed into them, and subscripting a tainted value stays
  tainted.

Escapes — the shapes HL011 reports:

* ``self``: a borrow assigned to ``self.<attr>``;
* ``global``: a borrow assigned to a module-level / ``global`` name;
* ``container``: a borrow pushed into a container reached from ``self``
  or module scope (``self.cache.append(refs)``, ``CACHE[k] = refs``);
* ``mutation``: an assignment into a subscript of a borrow view
  (``ref.buf[0:4] = ...``, ``v = ref.view(); v[i] = ...``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

__all__ = [
    "BorrowAnalysis",
    "Escape",
    "analyze_borrows",
    "name_bindings",
    "BORROW_SOURCE_METHODS",
    "PASSTHROUGH_HELPERS",
]

#: Method names whose call yields borrowed ranges from a store/device.
BORROW_SOURCE_METHODS = frozenset({"read_refs"})

#: Helpers that return views/refs over their (possibly borrowed) input.
PASSTHROUGH_HELPERS = frozenset({"block_views", "split_parts"})

#: Container methods that capture a reference to their argument.
_CAPTURING_METHODS = frozenset({"append", "extend", "insert", "add",
                                "appendleft", "setdefault", "update"})

_REF = "ref"
_VIEW = "view"


def name_bindings(node: ast.AST) -> Dict[str, List[ast.AST]]:
    """Every name -> the list of value expressions bound to it (reaching
    definitions without kill: all bindings anywhere in ``node``)."""
    out: Dict[str, List[ast.AST]] = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                for name in _target_names(target):
                    out.setdefault(name, []).append(sub.value)
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            if isinstance(sub.target, ast.Name):
                out.setdefault(sub.target.id, []).append(sub.value)
        elif isinstance(sub, ast.AugAssign):
            if isinstance(sub.target, ast.Name):
                out.setdefault(sub.target.id, []).append(sub.value)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for name in _target_names(sub.target):
                out.setdefault(name, []).append(sub.iter)
    return out


def _target_names(target: ast.AST) -> List[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)]


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_self_chain(node: ast.AST) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


@dataclass(frozen=True)
class Escape:
    """One borrow escape site."""

    node: ast.AST
    kind: str      # "self" | "global" | "container" | "mutation"
    detail: str


@dataclass
class BorrowAnalysis:
    """Result of :func:`analyze_borrows` over one function body."""

    returns_borrow_direct: bool = False
    returns_borrow_if: Set[str] = field(default_factory=set)
    escapes: List[Escape] = field(default_factory=list)


class _BorrowEngine:
    def __init__(self, fn: ast.AST,
                 call_resolver: Callable[[ast.Call], Sequence[str]],
                 is_borrow_call: Optional[Callable[[Sequence[str]], bool]],
                 module_scope: bool) -> None:
        self.fn = fn
        self.call_resolver = call_resolver
        self.is_borrow_call = is_borrow_call
        self.module_scope = module_scope
        self.taint: Dict[str, str] = {}        # name -> _REF | _VIEW
        self.result = BorrowAnalysis()
        self.locals: Set[str] = set(name_bindings(fn))
        self.globals_decl: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
        if not module_scope:
            args = getattr(fn, "args", None)
            if args is not None:
                for arg in (list(args.posonlyargs) + list(args.args)
                            + list(args.kwonlyargs)):
                    self.locals.add(arg.arg)
                if args.vararg:
                    self.locals.add(args.vararg.arg)
                if args.kwarg:
                    self.locals.add(args.kwarg.arg)

    # -- expression taint ---------------------------------------------------

    def kind_of(self, node: ast.AST) -> Optional[str]:
        """The taint kind an expression evaluates to, or None."""
        if isinstance(node, ast.Name):
            return self.taint.get(node.id)
        if isinstance(node, ast.Subscript):
            return self.kind_of(node.value)
        if isinstance(node, ast.Starred):
            return self.kind_of(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            kinds = [self.kind_of(e) for e in node.elts]
            if _VIEW in kinds:
                return _VIEW
            if _REF in kinds:
                return _REF
            return None
        if isinstance(node, ast.IfExp):
            return self.kind_of(node.body) or self.kind_of(node.orelse)
        if isinstance(node, ast.Attribute):
            if node.attr == "buf" and self.kind_of(node.value) is not None:
                return _VIEW
            return None
        if isinstance(node, ast.Call):
            return self.call_kind(node)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # [r.view() for r in refs] — taint flows through the iterable.
            for gen in node.generators:
                if self.kind_of(gen.iter) is not None:
                    elt_term = None
                    if isinstance(node.elt, ast.Call):
                        elt_term = _terminal(node.elt.func)
                    return _VIEW if elt_term == "view" else _REF
            return None
        return None

    def call_kind(self, call: ast.Call) -> Optional[str]:
        term = _terminal(call.func)
        if term == "view" and isinstance(call.func, ast.Attribute) \
                and self.kind_of(call.func.value) is not None:
            return _VIEW
        if term in BORROW_SOURCE_METHODS:
            return _REF
        if term in PASSTHROUGH_HELPERS:
            if any(self.kind_of(a) is not None for a in call.args):
                return _VIEW if term == "block_views" else _REF
            return None
        if self.is_borrow_call is not None:
            candidates = list(self.call_resolver(call))
            if candidates and self.is_borrow_call(candidates):
                return _REF
        return None

    # -- driving ------------------------------------------------------------

    def run(self) -> BorrowAnalysis:
        # Pass 1 twice: converge taint through loops; pass 3: report.
        for _ in range(2):
            for node in ast.walk(self.fn):
                self.propagate(node)
        for node in ast.walk(self.fn):
            self.report(node)
        return self.result

    def propagate(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            kind = self.kind_of(node.value)
            for target in node.targets:
                for name in _target_names(target):
                    if kind is not None:
                        self.taint[name] = kind
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            kind = self.kind_of(node.value)
            if kind is not None and isinstance(node.target, ast.Name):
                self.taint[node.target.id] = kind
        elif isinstance(node, ast.AugAssign):
            kind = self.kind_of(node.value)
            if kind is not None and isinstance(node.target, ast.Name):
                self.taint[node.target.id] = kind
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            kind = self.kind_of(node.iter)
            if kind is not None:
                for name in _target_names(node.target):
                    self.taint[name] = kind
        elif isinstance(node, ast.Call):
            # container.append(borrow) taints a *local* container.
            term = _terminal(node.func)
            if (term in _CAPTURING_METHODS
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in self.locals):
                kinds = [self.kind_of(a) for a in node.args]
                kind = _VIEW if _VIEW in kinds else (
                    _REF if _REF in kinds else None)
                if kind is not None:
                    self.taint[node.func.value.id] = kind
        elif isinstance(node, ast.Return) and node.value is not None:
            if self.kind_of(node.value) is not None:
                self.result.returns_borrow_direct = True
            else:
                for call in self._return_calls(node.value):
                    self.result.returns_borrow_if.update(
                        self.call_resolver(call))

    def _return_calls(self, value: ast.AST) -> List[ast.Call]:
        """Calls whose borrow-ness would make this return a borrow:
        ``return f(...)`` directly, or ``return x`` where every binding
        of ``x`` is a single call."""
        if isinstance(value, ast.Call):
            return [value]
        if isinstance(value, ast.Name):
            bindings = name_bindings(self.fn).get(value.id, [])
            return [b for b in bindings if isinstance(b, ast.Call)]
        if isinstance(value, (ast.Tuple, ast.List)):
            out: List[ast.Call] = []
            for elt in value.elts:
                out.extend(self._return_calls(elt))
            return out
        return []

    # -- escape reporting ---------------------------------------------------

    def report(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            kind = self.kind_of(node.value)
            for target in node.targets:
                self._report_store(target, kind, node)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._report_store(node.target, self.kind_of(node.value), node)
        elif isinstance(node, ast.AugAssign):
            self._report_store(node.target, self.kind_of(node.value), node,
                               augmented=True)
        elif isinstance(node, ast.Call):
            term = _terminal(node.func)
            if term in _CAPTURING_METHODS \
                    and isinstance(node.func, ast.Attribute):
                kinds = [self.kind_of(a) for a in node.args] + [
                    self.kind_of(kw.value) for kw in node.keywords]
                if not any(k is not None for k in kinds):
                    return
                base = node.func.value
                if _is_self_chain(base):
                    self.result.escapes.append(Escape(
                        node, "container",
                        f"borrowed range captured by "
                        f"'self...{node.func.attr}(...)'"))
                elif isinstance(base, ast.Name) \
                        and base.id not in self.locals:
                    self.result.escapes.append(Escape(
                        node, "container",
                        f"borrowed range captured by module-level "
                        f"'{base.id}.{node.func.attr}(...)'"))

    def _report_store(self, target: ast.AST, kind: Optional[str],
                      node: ast.AST, augmented: bool = False) -> None:
        # Mutation: writing *through* a borrow view.
        if isinstance(target, ast.Subscript):
            base_kind = self.kind_of(target.value)
            if base_kind == _VIEW or (
                    isinstance(target.value, ast.Attribute)
                    and target.value.attr == "buf"
                    and self.kind_of(target.value.value) is not None):
                self.result.escapes.append(Escape(
                    node, "mutation",
                    "write through a borrowed buffer view"))
                return
            # Store into a long-lived mapping/sequence.
            if kind is not None:
                if _is_self_chain(target.value):
                    self.result.escapes.append(Escape(
                        node, "container",
                        "borrowed range stored into a container on "
                        "'self'"))
                elif isinstance(target.value, ast.Name) \
                        and target.value.id not in self.locals:
                    self.result.escapes.append(Escape(
                        node, "container",
                        f"borrowed range stored into module-level "
                        f"'{target.value.id}'"))
            return
        if kind is None:
            return
        if isinstance(target, ast.Attribute) and _is_self_chain(target):
            self.result.escapes.append(Escape(
                node, "self",
                f"borrowed range stored on 'self.{target.attr}'"))
        elif isinstance(target, ast.Name):
            name = target.id
            if name in self.globals_decl or (
                    self.module_scope and not augmented):
                self.result.escapes.append(Escape(
                    node, "global",
                    f"borrowed range stored in module-level '{name}'"))


def analyze_borrows(
        fn: ast.AST,
        call_resolver: Callable[[ast.Call], Sequence[str]],
        is_borrow_call: Optional[Callable[[Sequence[str]], bool]] = None,
        module_scope: bool = False) -> BorrowAnalysis:
    """Run the borrow taint/escape analysis over one function body.

    ``call_resolver`` maps a call expression to candidate dotted targets
    (see :func:`repro.analysis.program.summary.call_candidates`).  With
    ``is_borrow_call`` unset (summary extraction), calls to project
    functions are *conditionally* tainted and recorded in
    ``returns_borrow_if``; with it set (HL011's check phase, backed by
    the index fixpoint), they resolve immediately and escapes are exact.
    """
    return _BorrowEngine(fn, call_resolver, is_borrow_call,
                         module_scope).run()
