"""Small AST helpers shared by the HL rules."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

__all__ = ["dotted_chain", "terminal_attr", "caught_names", "import_map",
           "iter_functions", "statements"]


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
    """The last identifier of a name/attribute chain (``a.b.c`` -> ``c``),
    looking through subscripts (``a.drives[i]`` -> ``drives``)."""
    if isinstance(node, ast.Subscript):
        return terminal_attr(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def caught_names(type_node: ast.AST) -> Set[str]:
    """The exception class names an ``except`` clause's type names."""
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    return {name for name in map(terminal_attr, nodes) if name is not None}


def statements(body) -> Iterator[ast.stmt]:
    """Every statement in ``body`` and, depth first, in the blocks it
    nests (loop, ``if``, ``try``, ``with``, ``def`` and ``class``
    bodies): a walk that never descends into expressions."""
    for node in body:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from statements(getattr(node, block, ()))


def import_map(sf) -> Dict[str, str]:
    """Local name -> dotted target, from the module's import statements
    (relative imports resolved against the module's package)."""
    mapping: Dict[str, str] = {}
    for node in statements(sf.tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = sf.module.split(".")
                base = ".".join(parts[:len(parts) - node.level]
                                + ([base] if base else []))
            for alias in node.names:
                if alias.name != "*":
                    mapping[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name)
    return mapping


def iter_functions(sf) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Yield ``(def_node, class_node)`` for every top-level function
    (``class_node`` None) and method of a module, in source order.
    Nested defs are not yielded: their statements belong to the
    enclosing function."""
    for node in sf.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, node
