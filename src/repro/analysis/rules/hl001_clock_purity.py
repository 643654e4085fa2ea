"""HL001: all simulated time flows through the virtual clock.

The golden-trace regression tests diff byte-identical JSON across runs;
one ``time.time()`` in a hot path or one draw from the process-global
``random`` generator makes results depend on wall time or import order
and silently breaks that determinism (DESIGN.md's substitution table:
wall clock -> ``VirtualClock``, OS randomness -> seeded ``Random``).

Two reaches, one code:

* **direct** — a wall-clock call or import, or an unseeded RNG call,
  anywhere in the tree is reported at its call site;
* **indirect** — in the simulation layers (``repro.core``,
  ``repro.lfs``), a function whose call closure reaches a wall-clock
  source through helpers, possibly in other modules, is reported at
  its ``def`` with the witness path from the program index
  (``f -> helper -> time.time``).  The function that makes the call
  itself is already reported at the call, so it is not reported
  again.  Host-side tooling outside those layers (bench timing, the
  analyzer's own build clock) may legitimately reach real time.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile, in_scope
from repro.analysis.program.summary import (CLOCK_IMPORT_BANS,
                                            CLOCK_SUFFIXES, iter_functions)
from repro.analysis.rules.util import dotted_chain

#: Where reaching a wall-clock source through helpers is a finding.
_REACH_SCOPE: Tuple[str, ...] = ("repro.core", "repro.lfs")

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
                 "clock is called directly or reached through helpers")
    uses_program = True

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                banned = CLOCK_IMPORT_BANS.get(node.module, set())
                for alias in node.names:
                    if alias.name in banned:
                        findings.append(self.finding(
                            sf, node,
                            f"import of wall-clock symbol "
                            f"'{node.module}.{alias.name}'; use the "
                            f"virtual clock (repro.sim.VirtualClock)"))
        for call in sf.calls:
            chain = dotted_chain(call.func)
            if chain is None:
                continue
            for suffix in CLOCK_SUFFIXES:
                if chain == suffix or chain.endswith("." + suffix):
                    findings.append(self.finding(
                        sf, call,
                        f"wall-clock call '{chain}()'; simulated time "
                        f"must flow through the virtual clock"))
                    break
            else:
                findings.extend(self._check_random(sf, call, chain))
        if in_scope(sf.module, _REACH_SCOPE):
            findings.extend(self._check_reach(sf))
        return findings

    def _check_reach(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for qname, fn, _ in iter_functions(sf):
            via, _source = self.program.clock_reach.get(qname, (None, ""))
            if via is None:
                continue  # no reach, or a direct call reported above
            witness = self.program.clock_witness(qname)
            findings.append(self.finding(
                sf, fn,
                f"call closure reaches wall-clock source "
                f"'{witness[-1]}' via {' -> '.join(witness)}; route "
                f"simulated time through the virtual clock"))
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
