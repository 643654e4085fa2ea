"""HL011: borrowed extent ranges must not outlive the lending store.

The zero-copy read path (``read_refs``) lends ``ExtentRef``
windows over buffers the store still owns; cleaning, crash-recovery
truncation, or a ``writev`` adoption may recycle those buffers at
any yield point after the call returns.  A borrow that is stored on
``self``, in a module global, or in a container that outlives the call
is therefore a latent use-after-release — exactly the class of bug the
runtime borrow sanitizer (``repro.analysis.sanitize``) traps, but a
whole-program scan catches it before it ever runs.  Writing *through* a
borrowed view is just as bad: the lender's buffer is shared with the
device image.

Returning a borrow is sanctioned — that is how the lending chain is
built — and the datapath/extent internals that implement the lending
protocol itself are exempt.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.program.dataflow import analyze_borrows
from repro.analysis.program.summary import ModuleResolver, iter_functions

_KIND_HINTS = {
    "self": "the ref outlives the call via the instance",
    "global": "the ref outlives the call via module state",
    "container": "the container outlives the borrowing call",
    "mutation": "the lender still owns the underlying buffer",
}


class HL011BorrowEscape(Rule):
    code = "HL011"
    name = "borrow-escape"
    rationale = ("ExtentRef/memoryview borrows from a store are only "
                 "valid until the store recycles the buffer; storing "
                 "them on self/globals/long-lived containers or writing "
                 "through them is a latent use-after-release")
    #: The lending protocol's own implementation, and the sanitizer
    #: that wraps it at runtime, legitimately retain and rewrite refs.
    exempt = ("repro.blockdev.datapath", "repro.blockdev.extent",
              "repro.blockdev.base", "repro.analysis.sanitize")
    uses_program = True

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        resolver = ModuleResolver(sf)
        is_borrow_call = (self.program.is_borrow_call
                          if self.program is not None else None)
        for _, fn, class_qname in iter_functions(sf):
            analysis = analyze_borrows(
                fn, resolver.function_resolver(fn, class_qname),
                is_borrow_call=is_borrow_call)
            findings.extend(self._emit(sf, analysis))
        module_body = self._module_level(sf)
        if module_body is not None:
            analysis = analyze_borrows(
                module_body, resolver.function_resolver(module_body, None),
                is_borrow_call=is_borrow_call, module_scope=True)
            findings.extend(self._emit(sf, analysis))
        return findings

    def _emit(self, sf: SourceFile, analysis) -> List[Finding]:
        out: List[Finding] = []
        for esc in analysis.escapes:
            hint = _KIND_HINTS.get(esc.kind, "")
            out.append(self.finding(
                sf, esc.node,
                f"borrow escape ({esc.kind}): {esc.detail}"
                + (f" — {hint}" if hint else "")))
        return out

    @staticmethod
    def _module_level(sf: SourceFile) -> Optional[ast.Module]:
        """Module-level statements only: function/class bodies are
        analyzed per function, so descending into them here would
        double-report every escape."""
        body = [stmt for stmt in sf.tree.body
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))]
        if not body:
            return None
        return ast.Module(body=body, type_ignores=[])
