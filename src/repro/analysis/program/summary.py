"""Per-module summaries: the per-file unit of whole-program analysis.

A :class:`ModuleSummary` is a pure function of one file's text — no
other file is consulted.  Cross-file questions ("is this call
target a project function?", "does this function transitively reach
``time.time()``?") are deliberately deferred to
:class:`~repro.analysis.program.index.ProgramIndex`, which owns the
combined view.

What gets extracted per function (methods are ``module.Class.name``;
nested defs and lambdas are collapsed into their enclosing function):

* ``calls`` — import-resolved *candidate* dotted targets for every call
  whose receiver we can type: plain names through the import map and
  module-level defs, ``self.m()`` through the enclosing class and its
  declared bases, ``self.attr.m()`` / ``local.m()`` through inferred
  attribute/local constructor types, and annotated parameters.
* ``clock_calls`` — calls that textually or after import resolution hit
  a real-time source (the HL001 catalogue, lifted so that aliased
  imports like ``from time import monotonic as tick`` are seen).
* actor facts — parameters carrying the executing actor, expressions
  that denote *other* actors, consumed by HL012.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import SourceFile
from repro.analysis.rules.util import dotted_chain

__all__ = [
    "ACTOR_CLASS",
    "CLOCK_IMPORT_BANS",
    "CLOCK_SUFFIXES",
    "FunctionSummary",
    "ModuleResolver",
    "ModuleSummary",
    "actor_param_names",
    "import_map",
    "iter_functions",
    "summarize",
]

#: Wall-clock reads and real sleeps, matched as dotted-chain suffixes so
#: both ``time.time()`` and ``datetime.datetime.now()`` are caught.  The
#: one table: HL001's direct check reads it too.
CLOCK_SUFFIXES: Tuple[str, ...] = (
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
)

#: Names that, imported from ``time``/``datetime``, are real-time sources.
CLOCK_IMPORT_BANS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns", "sleep"},
    "datetime": {"datetime", "date"},
}

#: The project actor class; attributes/locals constructed from it are
#: actor-typed for HL012.
ACTOR_CLASS = "repro.sim.actor.Actor"
_ACTOR_CTOR_NAMES = frozenset({"Actor"})


@dataclass
class FunctionSummary:
    """Facts about one function."""

    qname: str
    line: int = 0
    #: Candidate dotted call targets (project-ness decided by the index).
    calls: List[str] = field(default_factory=list)
    #: Real-time source descriptors hit directly in the body.
    clock_calls: List[str] = field(default_factory=list)
    #: Parameter names that carry the executing actor.
    actor_params: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the index needs to know about one module."""

    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: class qname -> list of resolved base-class dotted names.
    class_bases: Dict[str, List[str]] = field(default_factory=dict)
    #: class qname -> {attr name -> constructor dotted name}.
    attr_types: Dict[str, Dict[str, str]] = field(default_factory=dict)


# -- shared AST walks --------------------------------------------------------

def iter_functions(sf: SourceFile) -> Iterator[
        Tuple[str, ast.AST, Optional[str]]]:
    """Yield ``(qname, def_node, class_qname)`` for every top-level
    function and method of a module, in source order.  Nested defs are
    *not* yielded — their statements belong to the enclosing function.
    """
    for node in sf.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{sf.module}.{node.name}", node, None
        elif isinstance(node, ast.ClassDef):
            class_qname = f"{sf.module}.{node.name}"
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{class_qname}.{item.name}", item, class_qname


def import_map(sf: SourceFile) -> Dict[str, str]:
    """Local name -> dotted target, from the module's import statements."""
    mapping: Dict[str, str] = {}
    package = sf.module.rsplit(".", 1)[0] if "." in sf.module else ""
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: resolve against the module's package.
                parts = sf.module.split(".")
                anchor = parts[:len(parts) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{base}.{alias.name}" if base \
                    else alias.name
            _ = package
    return mapping


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").split("[")[0]
    chain = dotted_chain(node)
    return chain


def actor_param_names(fn: ast.AST, imports: Dict[str, str]) -> List[str]:
    """Parameters that carry the executing actor.

    The codebase convention is a parameter literally named ``actor``;
    an ``Actor``-annotated parameter of any name counts too.
    """
    out: List[str] = []
    args = fn.args
    every = (list(args.posonlyargs) + list(args.args)
             + list(args.kwonlyargs))
    for arg in every:
        ann = _annotation_name(arg.annotation)
        resolved = imports.get(ann, ann) if ann else None
        if arg.arg == "actor" or ann == "Actor" or resolved == ACTOR_CLASS:
            out.append(arg.arg)
    return out


class _TypeInference:
    """Constructor-based local/attribute typing for call resolution."""

    def __init__(self, imports: Dict[str, str],
                 module_defs: Dict[str, str]) -> None:
        self.imports = imports
        self.module_defs = module_defs  # local name -> qname in module

    def resolve_name(self, name: str) -> Optional[str]:
        """A module-visible name to a dotted target (project or not)."""
        if name in self.module_defs:
            return self.module_defs[name]
        if name in self.imports:
            return self.imports[name]
        return None

    def ctor_target(self, value: ast.AST) -> Optional[str]:
        """``Name(...)`` / ``mod.Name(...)`` to the constructed dotted
        class name, or None when the value is not a plain constructor
        call."""
        if not isinstance(value, ast.Call):
            return None
        chain = dotted_chain(value.func)
        if not chain or chain.startswith("."):
            return None
        head, _, rest = chain.partition(".")
        resolved = self.resolve_name(head)
        if resolved is None:
            return None
        return f"{resolved}.{rest}" if rest else resolved

    def class_attr_types(self, class_node: ast.ClassDef) -> Dict[str, str]:
        """``self.attr = Ctor(...)`` assignments anywhere in the class."""
        out: Dict[str, str] = {}
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Assign):
                continue
            target_attr = None
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    target_attr = target.attr
            if target_attr is None:
                continue
            ctor = self.ctor_target(node.value)
            if ctor is not None:
                out.setdefault(target_attr, ctor)
        return out

    def local_types(self, fn: ast.AST) -> Dict[str, str]:
        """Locals bound from constructor calls or typed annotations."""
        out: Dict[str, str] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                ctor = self.ctor_target(node.value)
                if ctor is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, ctor)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                ctor = self.ctor_target(node.value)
                if ctor is not None and isinstance(node.target, ast.Name):
                    out.setdefault(node.target.id, ctor)
        args = fn.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            ann = _annotation_name(arg.annotation)
            if ann:
                resolved = self.resolve_name(ann.split(".")[0])
                if resolved is not None:
                    rest = ann.partition(".")[2]
                    out.setdefault(
                        arg.arg, f"{resolved}.{rest}" if rest else resolved)
        return out


def _clock_descriptor(chain: str, imports: Dict[str, str]) -> Optional[str]:
    """Return the matched real-time source for a call chain, if any."""
    if not chain:
        return None
    for suffix in CLOCK_SUFFIXES:
        if chain == suffix or chain.endswith("." + suffix):
            return suffix
    head, _, rest = chain.partition(".")
    resolved = imports.get(head)
    if resolved is not None:
        full = f"{resolved}.{rest}" if rest else resolved
        for suffix in CLOCK_SUFFIXES:
            if full == suffix or full.endswith("." + suffix):
                return suffix
        # ``from time import monotonic as tick`` -> tick() is time.monotonic.
        mod, _, name = resolved.rpartition(".")
        if not rest and mod in CLOCK_IMPORT_BANS \
                and name in CLOCK_IMPORT_BANS[mod]:
            return f"{mod}.{name}"
    return None


def call_candidates(call: ast.Call, *, imports: Dict[str, str],
                    module_defs: Dict[str, str],
                    class_qname: Optional[str],
                    class_bases: Dict[str, List[str]],
                    attr_types: Dict[str, str],
                    local_types: Dict[str, str]) -> List[str]:
    """Candidate dotted targets for one call expression."""
    func = call.func
    out: List[str] = []
    if isinstance(func, ast.Name):
        resolved = module_defs.get(func.id) or imports.get(func.id)
        if resolved:
            out.append(resolved)
        return out
    chain = dotted_chain(func)
    if not chain or chain.startswith("."):
        return out
    parts = chain.split(".")
    if parts[0] == "self" and class_qname is not None:
        if len(parts) == 2:
            out.append(f"{class_qname}.{parts[1]}")
            for base in class_bases.get(class_qname, []):
                out.append(f"{base}.{parts[1]}")
        elif len(parts) == 3 and parts[1] in attr_types:
            out.append(f"{attr_types[parts[1]]}.{parts[2]}")
        return out
    if len(parts) == 2 and parts[0] in local_types:
        out.append(f"{local_types[parts[0]]}.{parts[1]}")
        return out
    resolved = module_defs.get(parts[0]) or imports.get(parts[0])
    if resolved:
        out.append(".".join([resolved] + parts[1:]))
    return out


# -- the resolver ------------------------------------------------------------

class ModuleResolver:
    """One file's name-resolution context, shared by the summary
    extractor and the interprocedural rules' check phases."""

    def __init__(self, sf: SourceFile) -> None:
        self.imports = import_map(sf)
        self.module_defs: Dict[str, str] = {}
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.module_defs[node.name] = f"{sf.module}.{node.name}"
        self.infer = _TypeInference(self.imports, self.module_defs)
        self.class_bases: Dict[str, List[str]] = {}
        self.attr_types: Dict[str, Dict[str, str]] = {}
        for node in sf.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            class_qname = f"{sf.module}.{node.name}"
            bases: List[str] = []
            for base in node.bases:
                chain = dotted_chain(base)
                if not chain:
                    continue
                head, _, rest = chain.partition(".")
                resolved = self.infer.resolve_name(head)
                if resolved:
                    bases.append(f"{resolved}.{rest}" if rest else resolved)
            self.class_bases[class_qname] = bases
            self.attr_types[class_qname] = self.infer.class_attr_types(node)

    def function_resolver(self, fn: ast.AST, class_qname: Optional[str]):
        """A ``call -> candidate targets`` closure for one function."""
        local_types = self.infer.local_types(fn) \
            if not isinstance(fn, ast.Module) else {}
        attr_types = self.attr_types.get(class_qname or "", {})

        def resolve(call: ast.Call) -> List[str]:
            return call_candidates(
                call, imports=self.imports, module_defs=self.module_defs,
                class_qname=class_qname, class_bases=self.class_bases,
                attr_types=attr_types, local_types=local_types)
        return resolve

    def local_actor_names(self, fn: ast.AST) -> List[str]:
        """Locals bound from ``Actor(...)`` — objects the function owns."""
        return [name for name, typ in self.infer.local_types(fn).items()
                if typ == ACTOR_CLASS]


# -- the extractor -----------------------------------------------------------

def summarize(sf: SourceFile) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed file."""
    resolver = sf.resolver
    summary = ModuleSummary(module=sf.module, path=sf.display_path)
    summary.class_bases = resolver.class_bases
    summary.attr_types = resolver.attr_types

    for qname, fn, class_qname in iter_functions(sf):
        fn_resolver = resolver.function_resolver(fn, class_qname)
        fsum = FunctionSummary(qname=qname, line=fn.lineno)
        fsum.actor_params = actor_param_names(fn, resolver.imports)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            clock = _clock_descriptor(chain or "", resolver.imports)
            if clock is not None:
                fsum.clock_calls.append(clock)
            fsum.calls.extend(fn_resolver(node))
        summary.functions[qname] = fsum
    return summary
