"""HL001: all simulated time flows through the virtual clock.

The golden-trace regression tests diff byte-identical JSON across runs;
one ``time.time()`` in a hot path or one draw from the process-global
``random`` generator makes results depend on wall time or import order
and silently breaks that determinism (DESIGN.md's substitution table:
wall clock -> ``VirtualClock``, OS randomness -> seeded ``Random``).

A wall-clock call or import, or an unseeded RNG call, anywhere in the
tree is reported at its call site.  Module aliases resolve through the
file's imports, so ``import time as t; t.monotonic()`` is the same
finding as ``time.monotonic()``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import dotted_chain, import_map, statements

#: Wall-clock reads and real sleeps, matched as dotted-chain suffixes so
#: both ``time.time()`` and ``datetime.datetime.now()`` are caught.
CLOCK_SUFFIXES: Tuple[str, ...] = (
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
)
_DOTTED_SUFFIXES = tuple("." + suffix for suffix in CLOCK_SUFFIXES)

#: Names that, imported from ``time``/``datetime``, are real-time sources.
CLOCK_IMPORT_BANS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns", "sleep"},
    "datetime": {"datetime", "date"},
}

#: Module-level functions of ``random`` that draw from the unseeded
#: process-global generator.  ``random.Random(seed)`` is the sanctioned
#: alternative; ``random.seed`` mutates cross-module shared state, which
#: is just as hostile to reproducibility.
_GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "randbytes",
    "getrandbits", "seed",
}


class HL001ClockPurity(Rule):
    code = "HL001"
    name = "clock-purity"
    rationale = ("simulated time must come from the virtual clock and "
                 "randomness from an explicitly seeded generator, or "
                 "golden-trace determinism breaks, whether the wall "
                 "clock is called directly or through a module alias")

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in statements(sf.tree.body):
            if isinstance(node, ast.ImportFrom) and node.module:
                banned = CLOCK_IMPORT_BANS.get(node.module, set())
                for alias in node.names:
                    if alias.name in banned:
                        findings.append(self.finding(
                            sf, node,
                            f"import of wall-clock symbol "
                            f"'{node.module}.{alias.name}'; use the "
                            f"virtual clock (repro.sim.clock.VirtualClock)"))
        imports = import_map(sf)
        for call in sf.calls:
            chain = dotted_chain(call.func)
            if chain is None:
                continue
            if _is_clock(chain, imports):
                findings.append(self.finding(
                    sf, call,
                    f"wall-clock call '{chain}()'; simulated time must "
                    f"flow through the virtual clock"))
            else:
                findings.extend(self._check_random(sf, call, chain))
        return findings

    def _check_random(self, sf: SourceFile, call: ast.Call,
                      chain: str) -> List[Finding]:
        parts = chain.split(".")
        # random.<func>() on the process-global generator.
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] in _GLOBAL_RANDOM_FUNCS:
                return [self.finding(
                    sf, call,
                    f"unseeded global RNG call '{chain}()'; use a seeded "
                    f"random.Random(seed) instance")]
            if parts[1] == "Random" and not call.args and not call.keywords:
                return [self.finding(
                    sf, call,
                    "random.Random() without a seed is time-seeded; pass "
                    "an explicit seed")]
        # numpy's module-level generator (np.random.*) and an unseeded
        # default_rng().
        if "random" in parts[:-1] and parts[0] in ("np", "numpy"):
            if parts[-1] == "default_rng" and (call.args or call.keywords):
                return []
            return [self.finding(
                sf, call,
                f"numpy global/unseeded RNG call '{chain}()'; use "
                f"numpy.random.default_rng(seed)")]
        return []


def _is_clock(chain: str, imports: Dict[str, str]) -> bool:
    """True when a call chain names a real-time source, read as written
    or with its head resolved through the module's imports."""
    head, _, rest = chain.partition(".")
    resolved = imports.get(head, head)
    full = f"{resolved}.{rest}" if rest else resolved
    return any(spelled in CLOCK_SUFFIXES or spelled.endswith(_DOTTED_SUFFIXES)
               for spelled in (chain, full))
