"""HL005: metric label sets are bounded literals.

The registry caps series cardinality per family
(:class:`repro.obs.registry.MetricFamily`, ``max_series``), but the cap
only fires after a hot path has already leaked an unbounded label set.
Statically, two things keep labels honest:

1. the ``labelnames`` of a ``counter``/``gauge``/``histogram`` family
   must be a literal tuple/list of string constants — a computed label
   *name* set defeats both the cardinality cap and grep;
2. ``.labels(...)`` calls must spell their labels as explicit keywords —
   ``**kwargs`` expansion hides which label names a call site can
   produce.

Label *values* may be dynamic (device names, op kinds); it is the label
name set that must be closed.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import call_name

_FAMILY_FUNCS = frozenset({"counter", "gauge", "histogram"})

#: Position of ``labelnames`` in the family accessors' signatures
#: (``name, help, labelnames, …`` on both MetricsRegistry and repro.obs).
_LABELNAMES_POS = 2


class HL005MetricLabels(Rule):
    code = "HL005"
    name = "metrics-label-hygiene"
    rationale = ("a dynamic label-name set can blow the registry's series "
                 "cap at runtime; label names must be closed, literal "
                 "sets")
    exempt = ("repro.obs",)

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in sf.calls:
            name = call_name(call)
            if name in _FAMILY_FUNCS:
                arg = self._labelnames_arg(call)
                if arg is not None and not self._is_literal_names(arg):
                    findings.append(self.finding(
                        sf, call,
                        f"labelnames of {name}(...) must be a literal "
                        f"tuple/list of string constants"))
            elif name == "labels":
                if call.args:
                    findings.append(self.finding(
                        sf, call,
                        ".labels(...) takes explicit keyword labels only"))
                elif any(kw.arg is None for kw in call.keywords):
                    findings.append(self.finding(
                        sf, call,
                        ".labels(**...) hides the label-name set; spell "
                        "each label as an explicit keyword"))
        return findings

    @staticmethod
    def _labelnames_arg(call: ast.Call) -> Optional[ast.AST]:
        for kw in call.keywords:
            if kw.arg == "labelnames":
                return kw.value
        if len(call.args) > _LABELNAMES_POS:
            return call.args[_LABELNAMES_POS]
        return None

    @staticmethod
    def _is_literal_names(node: ast.AST) -> bool:
        if not isinstance(node, (ast.Tuple, ast.List)):
            return False
        return all(isinstance(el, ast.Constant) and isinstance(el.value, str)
                   for el in node.elts)
