"""HL006: the filesystem core never swallows errors blindly.

``repro.lfs`` and ``repro.core`` implement the structures whose
integrity everything else assumes (the log, the ifile, the cache
directory, the migration pipeline).  A bare ``except:`` — or an
``except Exception:`` whose handler neither re-raises nor even looks at
the error — turns a corruption bug into a silent wrong answer.  The
library's :class:`repro.errors.ReproError` hierarchy exists precisely so
handlers can name the failure they expect (``FileNotFound`` for a
vanished inode, ``AddressError`` for an unmapped block, …) and let
everything else propagate.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import caught_names

_BLIND_TYPES = frozenset({"Exception", "BaseException"})


def _handler_is_blind(handler: ast.ExceptHandler) -> bool:
    """True when the handler can neither distinguish nor surface errors."""
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return False
            if (handler.name is not None and isinstance(sub, ast.Name)
                    and sub.id == handler.name):
                return False
    return True


class HL006ExceptionDiscipline(Rule):
    code = "HL006"
    name = "exception-discipline"
    rationale = ("a blind except in the filesystem core turns corruption "
                 "into silent wrong answers; catch the specific "
                 "ReproError subclass you expect")
    scope = ("repro.lfs", "repro.core")

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(self.finding(
                    sf, node,
                    "bare 'except:' swallows every error including "
                    "KeyboardInterrupt; catch a specific ReproError "
                    "subclass"))
                continue
            caught = caught_names(node.type)
            if caught & _BLIND_TYPES and _handler_is_blind(node):
                wide = ", ".join(sorted(caught & _BLIND_TYPES))
                findings.append(self.finding(
                    sf, node,
                    f"'except {wide}' neither re-raises nor inspects the "
                    f"error; catch the specific ReproError subclass this "
                    f"path expects"))
        return findings
