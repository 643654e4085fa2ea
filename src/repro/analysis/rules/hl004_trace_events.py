"""HL004: every emitted trace event type is part of the taxonomy.

The runtime check in :meth:`repro.obs.trace.TraceRecorder.emit` rejects
unknown types, but only when the line actually executes — a misspelled
event in a rarely-taken branch ships silently.  This rule makes the
taxonomy a static property: every string literal (or ``EV_*`` constant)
passed to ``obs.event(...)`` / ``<recorder>.emit(...)`` must resolve to
:data:`repro.obs.trace.BASE_EVENT_TYPES` — the same single source of
truth the runtime uses — or to a ``register_event_type("…")`` call or
``EV_* = "…"`` constant visible somewhere in the analyzed tree.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import call_name
from repro.obs.trace import BASE_EVENT_TYPES

_EMIT_NAMES = frozenset({"emit", "event"})


class HL004TraceEvents(Rule):
    code = "HL004"
    name = "trace-event-completeness"
    rationale = ("an event type outside the registered taxonomy raises "
                 "TraceError at runtime — but only on the branch that "
                 "emits it; the taxonomy should be checkable statically")

    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._known: Set[str] = set(BASE_EVENT_TYPES)
        self._constants: Dict[str, str] = {}

    def prepare(self, files: Sequence[SourceFile]) -> None:
        self._known = set(BASE_EVENT_TYPES)
        self._constants = {}
        # EV_* constants defined in the trace module itself are base.
        # (importlib, because ``repro.obs`` exports a helper *function*
        # named ``trace`` that shadows the submodule on attribute access.)
        import importlib
        trace_mod = importlib.import_module("repro.obs.trace")
        for name in dir(trace_mod):
            if name.startswith("EV_"):
                value = getattr(trace_mod, name)
                if isinstance(value, str):
                    self._constants[name] = value
        for sf in files:
            for call in sf.calls:
                if call_name(call) == "register_event_type" and call.args:
                    arg = call.args[0]
                    if isinstance(arg, ast.Constant) and isinstance(
                            arg.value, str):
                        self._known.add(arg.value)
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Assign):
                    continue
                value = self._assigned_literal(node.value)
                if value is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id.startswith("EV_"):
                        self._constants[target.id] = value

    @staticmethod
    def _assigned_literal(value: ast.expr) -> Optional[str]:
        """The event-type string an ``EV_* = ...`` assignment pins down.

        Covers both ``EV_X = "x"`` and the registration idiom
        ``EV_X = register_event_type("x")``.
        """
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        if (isinstance(value, ast.Call)
                and call_name(value) == "register_event_type"
                and value.args
                and isinstance(value.args[0], ast.Constant)
                and isinstance(value.args[0].value, str)):
            return value.args[0].value
        return None

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in sf.calls:
            if call_name(call) not in _EMIT_NAMES or not call.args:
                continue
            arg = call.args[0]
            etype = self._resolve(arg)
            if etype is None:
                continue  # dynamic expression or non-event emit()
            if etype not in self._known:
                findings.append(self.finding(
                    sf, call,
                    f"trace event type {etype!r} is not in "
                    f"BASE_EVENT_TYPES and no register_event_type() call "
                    f"for it is visible; register it or fix the name"))
        return findings

    def _resolve(self, arg: ast.AST) -> Optional[str]:
        """A checkable event-type expression, or None to skip."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        name: Optional[str] = None
        if isinstance(arg, ast.Name):
            name = arg.id
        elif isinstance(arg, ast.Attribute):
            name = arg.attr
        if name is not None and name.startswith("EV_"):
            # Unknown EV_ constants map to a sentinel that can never be
            # registered, so they are reported rather than skipped.
            return self._constants.get(name, f"<undefined constant {name}>")
        return None
