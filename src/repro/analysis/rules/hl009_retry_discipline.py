"""HL009: device-error retries go through ``repro.faults.RetryPolicy``.

A loop that catches a transient device error (``TransientMediaError``,
``MountFailure``, ``DriveTimeout``, or the blanket ``DeviceError``) and
simply iterates again is a *blind* retry: unbounded attempts, no
backoff, no per-class deadline, no health-registry reporting, and no
``retry`` trace event.  Under a genuinely failing medium such a loop
spins forever in virtual time, and even when it terminates it hides the
error count the quarantine machinery needs.  The one sanctioned retry
engine is :class:`repro.faults.retry.RetryPolicy` — bounded attempts,
seeded exponential backoff, deadlines, escalation to ``MediaFailure`` —
so ``repro.faults`` is the only package allowed to loop on these
exceptions.

Catching a *permanent* error (``PermanentDeviceError``,
``MediaFailure``) inside a loop is not retry: retrying a destroyed
medium is pointless, and the legitimate pattern — fail over to a
*different* volume per iteration, as the replica writer does — catches
exactly the permanent class.  Handlers that re-raise, ``break``, or
``return`` escape the loop and are likewise fine.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import caught_names

#: The retry-able (transient) family plus the blanket base class.
_RETRYABLE = frozenset({"DeviceError", "TransientDeviceError",
                        "TransientMediaError", "MountFailure",
                        "DriveTimeout"})

_LOOPS = (ast.While, ast.For, ast.AsyncFor)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_same_scope(nodes) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class bodies
    (a handler inside an inner function does not loop with us)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _escapes_loop(handler: ast.ExceptHandler) -> bool:
    """True when the handler leaves the loop instead of iterating on."""
    for node in _walk_same_scope(handler.body):
        if isinstance(node, (ast.Raise, ast.Break, ast.Return)):
            return True
    return False


class HL009RetryDiscipline(Rule):
    code = "HL009"
    name = "retry-discipline"
    rationale = ("a loop that swallows transient device errors and "
                 "iterates again is an unbounded blind retry; bounded "
                 "backoff retries live in repro.faults.RetryPolicy")
    exempt = ("repro.faults",)

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[int] = set()
        for loop in ast.walk(sf.tree):
            if not isinstance(loop, _LOOPS):
                continue
            for node in _walk_same_scope(loop.body):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if id(node) in seen or node.type is None:
                    continue
                retryable = caught_names(node.type) & _RETRYABLE
                if not retryable or _escapes_loop(node):
                    continue
                seen.add(id(node))
                names = ", ".join(sorted(retryable))
                findings.append(self.finding(
                    sf, node,
                    f"loop swallows {names} and iterates again (blind "
                    f"retry); run the attempt under "
                    f"repro.faults.RetryPolicy instead"))
        return findings
