"""Small AST helpers shared by the HL rules."""

from __future__ import annotations

import ast
from typing import Optional, Set

__all__ = ["dotted_chain", "terminal_attr", "call_name", "caught_names"]


def dotted_chain(node: ast.AST) -> Optional[str]:
    """Render an attribute/name chain as ``"a.b.c"``; None if not a chain.

    ``self.fs.disk.read`` -> ``"self.fs.disk.read"``.  Chains hanging off
    calls or subscripts (``x().y``, ``d[k].y``) are cut at the non-chain
    link and render only the trailing attributes.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("")  # anonymous head: x().attr, d[k].attr
    else:
        return None
    return ".".join(reversed(parts))


def terminal_attr(node: ast.AST) -> Optional[str]:
    """The last identifier of a name/attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The called name: ``f(...)`` -> ``f``, ``a.b.f(...)`` -> ``f``."""
    return terminal_attr(call.func)


def caught_names(type_node: ast.AST) -> Set[str]:
    """The exception class names an ``except`` clause's type names."""
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    return {name for name in map(terminal_attr, nodes) if name is not None}
