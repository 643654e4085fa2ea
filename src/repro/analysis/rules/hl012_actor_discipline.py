"""HL012: actors may not mutate each other's owned state directly.

The cooperative simulation gives every actor its own clock and time
account; causality between actors is established *only* through the
scheduler and the timed channels (``repro.sim.scheduler``), which know
how to order wakeups deterministically.  Code running on behalf of one
actor that directly advances another actor's clock, sleeps it, or
charges its account creates cross-actor causality the scheduler never
sees — the classic symptom is a golden trace that reorders under an
unrelated change.

"Running on behalf of an actor" is the codebase's explicit convention:
such functions take the executing actor as a parameter (named ``actor``
or ``Actor``-annotated).  Within them, any *other* actor-valued
expression — another actor parameter, a ``self.<attr>`` the class
assigns from ``Actor(...)``, or a name whose spelling marks it as an
actor — is foreign state.  Every fact comes from the checked file.  Actors constructed locally in the same
function are owned by it and are fair game (that is how scenario
drivers bootstrap), and the scheduler/channel layer itself
(``repro.sim``) is exempt: it is the sanctioned mutation path.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import (dotted_chain, import_map,
                                       iter_functions, statements)

#: The project actor class; attributes and locals constructed from it
#: are actor-typed.
ACTOR_CLASS = "repro.sim.actor.Actor"

#: ``<actor expr>.<suffix>(...)`` call shapes that mutate actor-owned
#: state: the actor's own timeline, its clock, its time account.
_MUTATOR_SUFFIXES: Tuple[Tuple[str, ...], ...] = (
    ("sleep",),
    ("sleep_until",),
    ("clock", "advance"),
    ("clock", "advance_each"),
    ("clock", "advance_to"),
    ("account", "charge"),
    ("account", "clear"),
)


def _actorish_name(name: str) -> bool:
    """Spelling heuristic for actor-valued locals/params beyond the
    executing ``actor`` parameter itself."""
    return (name == "actor" or name.endswith("_actor")
            or name.startswith("actor_"))


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").split("[")[0]
    return dotted_chain(node) if node is not None else None


def actor_param_names(fn: ast.AST, imports: Dict[str, str]) -> List[str]:
    """Parameters that carry the executing actor.

    The codebase convention is a parameter literally named ``actor``;
    an ``Actor``-annotated parameter of any name counts too.
    """
    out: List[str] = []
    args = fn.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        ann = _annotation_name(arg.annotation)
        resolved = imports.get(ann, ann) if ann else None
        if arg.arg == "actor" or ann == "Actor" or resolved == ACTOR_CLASS:
            out.append(arg.arg)
    return out


def _constructed(value: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The dotted class a ``Name(...)`` / ``mod.Name(...)`` call
    constructs, resolved through the module's imports; None otherwise."""
    if not isinstance(value, ast.Call):
        return None
    chain = dotted_chain(value.func)
    if not chain or chain.startswith("."):
        return None
    head, _, rest = chain.partition(".")
    resolved = imports.get(head)
    if resolved is None:
        return None
    return f"{resolved}.{rest}" if rest else resolved


def _bound_actors(root: ast.AST, imports: Dict[str, str],
                  key: Callable[[ast.AST], Optional[str]]) -> Set[str]:
    """Assignment targets under ``root`` whose first constructor binding
    is ``Actor(...)``; ``key`` spells a target (None skips it)."""
    first: Dict[str, str] = {}
    for node in statements(root.body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        ctor = _constructed(value, imports)
        if ctor is None:
            continue
        for target in targets:
            spelled = key(target)
            if spelled is not None:
                first.setdefault(spelled, ctor)
    return {name for name, ctor in first.items() if ctor == ACTOR_CLASS}


def _self_attr(target: ast.AST) -> Optional[str]:
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return f"self.{target.attr}"
    return None


def _local(target: ast.AST) -> Optional[str]:
    return target.id if isinstance(target, ast.Name) else None


class HL012ActorDiscipline(Rule):
    code = "HL012"
    name = "cross-actor-state"
    rationale = ("one actor's code must not mutate another actor's "
                 "clock, timeline, or account directly; cross-actor "
                 "causality flows through the scheduler and timed "
                 "channels, or trace determinism breaks")
    #: The scheduler/channel layer is the sanctioned mutation path —
    #: and so is the cluster's routing/migration layer, which performs
    #: the documented conservative join of the shared-nothing shard
    #: timelines (requests arrive at the client's time, shards serve on
    #: their own timelines, the client resumes at the latest
    #: completion; see repro.cluster.router).  The frontend's cluster
    #: backend adapter performs the same join for its background verbs
    #: (migrate/prefetch fan-out onto the owning shards' actors).
    exempt = ("repro.sim", "repro.cluster.router", "repro.cluster.migrate",
              "repro.frontend.backends")

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        imports = import_map(sf)
        held: Dict[ast.ClassDef, Set[str]] = {}
        for fn, cls in iter_functions(sf):
            actor_params = actor_param_names(fn, imports)
            if not actor_params:
                continue  # not actor-context code
            executing = ("actor" if "actor" in actor_params
                         else actor_params[0])
            # Foreign: the other actor params, and the instance
            # attributes the class assigns from Actor(...).
            foreign = {p for p in actor_params if p != executing}
            if cls is not None:
                if cls not in held:
                    held[cls] = _bound_actors(cls, imports, _self_attr)
                foreign |= held[cls]
            # Only actors constructed in this body are owned by it; a
            # parameter's actor arrives from a caller.
            owned = _bound_actors(fn, imports, _local) - set(actor_params)
            findings.extend(self._scan(
                sf, fn, executing, foreign, owned))
        return findings

    def _scan(self, sf: SourceFile, fn: ast.AST, executing: str,
              foreign: Set[str], owned: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                hit = self._mutator_base(node)
                if hit is None:
                    continue
                base, suffix = hit
                verdict = self._classify(base, executing, foreign, owned)
                if verdict is not None:
                    findings.append(self.finding(
                        sf, node,
                        f"cross-actor mutation '{base}.{suffix}(...)' "
                        f"({verdict}); route it through the scheduler "
                        f"or a timed channel (repro.sim)"))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    chain = dotted_chain(target)
                    if chain is None or "." not in chain:
                        continue
                    base = self._owning_actor(chain, executing,
                                              foreign, owned)
                    if base is not None:
                        findings.append(self.finding(
                            sf, node,
                            f"attribute store '{chain} = ...' writes "
                            f"another actor's owned object ('{base}'); "
                            f"only the owning actor or the scheduler "
                            f"may"))
        return findings

    @staticmethod
    def _mutator_base(call: ast.Call) -> Optional[Tuple[str, str]]:
        """``(base, suffix)`` when the call matches a mutator shape:
        ``peer.clock.advance(t)`` -> ``("peer", "clock.advance")``."""
        chain = dotted_chain(call.func)
        if chain is None:
            return None
        parts = chain.split(".")
        for suffix in _MUTATOR_SUFFIXES:
            n = len(suffix)
            if len(parts) > n and tuple(parts[-n:]) == suffix:
                return ".".join(parts[:-n]), ".".join(suffix)
        return None

    @staticmethod
    def _classify(base: str, executing: str, foreign: Set[str],
                  owned: Set[str]) -> Optional[str]:
        """A diagnostic tag when ``base`` is a foreign actor, else None
        (executing actor, locally-owned actor, or unknown receiver)."""
        if base == executing or base in owned:
            return None
        if base in foreign:
            return ("instance-held actor" if base.startswith("self.")
                    else "actor parameter other than the executing one")
        head = base.split(".")[0]
        if head in owned:
            return None
        if _actorish_name(base.split(".")[-1]):
            return "actor-named receiver"
        return None

    @staticmethod
    def _owning_actor(chain: str, executing: str, foreign: Set[str],
                      owned: Set[str]) -> Optional[str]:
        """The foreign-actor prefix of an attribute-store chain, e.g.
        ``peer.clock.now`` -> ``peer`` when ``peer`` is foreign."""
        parts = chain.split(".")
        for cut in range(1, len(parts)):
            prefix = ".".join(parts[:cut])
            if prefix == executing or prefix in owned:
                return None
            if prefix in foreign:
                return prefix
            if cut == 1 and _actorish_name(parts[0]) \
                    and parts[0] != executing:
                return prefix
        return None
