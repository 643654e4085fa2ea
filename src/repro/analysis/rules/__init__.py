"""The HL rule catalogue.

One module per rule, except the four doorway checks (HL002, HL007,
HL014, HL015), which are rows of one table in :mod:`.choke_points`.
``default_rules()`` instantiates the full suite with its production
scoping, which is what the CLI, CI, and the tier-1 cleanliness test
all run; it is the one registry.
"""

from typing import List

from repro.analysis.core import Rule
from repro.analysis.rules.choke_points import CHOKE_POINTS, ChokePointRule
from repro.analysis.rules.hl001_clock_purity import HL001ClockPurity
from repro.analysis.rules.hl006_exceptions import HL006ExceptionDiscipline
from repro.analysis.rules.hl008_datapath_copy import HL008DatapathCopy
from repro.analysis.rules.hl009_retry_discipline import HL009RetryDiscipline
from repro.analysis.rules.hl012_actor_discipline import HL012ActorDiscipline

_RULE_CLASSES = (
    HL001ClockPurity,
    HL006ExceptionDiscipline,
    HL008DatapathCopy,
    HL009RetryDiscipline,
    HL012ActorDiscipline,
)

__all__ = ["ChokePointRule", "default_rules"] + [
    cls.__name__ for cls in _RULE_CLASSES]


def default_rules() -> List[Rule]:
    """The full suite with each rule's default scoping, in code order."""
    rules = [cls() for cls in _RULE_CLASSES]
    rules += [ChokePointRule(point) for point in CHOKE_POINTS]
    return sorted(rules, key=lambda rule: rule.code)
