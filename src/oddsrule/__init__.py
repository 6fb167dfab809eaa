"""Optimal stopping on independent indicator sequences.

The odds rule, the exact success probability of stopping on the last
success, sharp upper/lower bounds with their attaining configurations,
and a set of independent verification oracles (dynamic programming,
Lindley's threshold, exhaustive enumeration, Monte Carlo).
"""

import importlib

from .bounds import (
    BoundReport,
    LowerBound,
    bound_report,
    corollary_bound,
    lower_bound,
    upper_bound,
)
from .core import (
    OddsSequence,
    ThresholdResult,
    WinProbability,
    odds_to_prob,
    secretary_sequence,
    threshold,
    validate_probabilities,
    win_probability,
)
from .errors import (
    EmptySequence,
    InconsistentInput,
    IndexOutOfRange,
    InternalBoundViolation,
    InvalidArgument,
    NotANumber,
    OddsRuleError,
    OutOfRange,
    TooLarge,
)
from .extremal import (
    ExtremalConfig,
    GenerationParameters,
    lower_extremal_case1,
    lower_extremal_case2,
    lower_near_extremal_case3,
    upper_extremal,
)

# oracle.py loads on first use of one of these names (or of oddsrule.oracle):
# it imports dataclasses, and with it inspect, ast and dis, which only the
# commands that check or simulate need.
_ORACLE_NAMES = (
    "CrossCheck",
    "DPResult",
    "SimulationReport",
    "cross_check",
    "dp_optimal_value",
    "exhaustive_value",
    "lindley_threshold",
    "monte_carlo",
    "threshold_rule_value",
    "threshold_rule_values",
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CrossCheck",
    "DPResult",
    "EmptySequence",
    "ExtremalConfig",
    "GenerationParameters",
    "InconsistentInput",
    "IndexOutOfRange",
    "InternalBoundViolation",
    "InvalidArgument",
    "LowerBound",
    "NotANumber",
    "OddsRuleError",
    "OddsSequence",
    "OutOfRange",
    "SimulationReport",
    "ThresholdResult",
    "TooLarge",
    "WinProbability",
    "bound_report",
    "corollary_bound",
    "cross_check",
    "dp_optimal_value",
    "exhaustive_value",
    "lindley_threshold",
    "lower_bound",
    "lower_extremal_case1",
    "lower_extremal_case2",
    "lower_near_extremal_case3",
    "monte_carlo",
    "odds_to_prob",
    "secretary_sequence",
    "threshold",
    "threshold_rule_value",
    "threshold_rule_values",
    "upper_bound",
    "upper_extremal",
    "validate_probabilities",
    "win_probability",
]


def __getattr__(name: str):
    """Import oracle.py the first time it or one of its names is read, and
    bind its names here so that later reads are plain lookups."""
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import oracle": that first asks hasattr(oddsrule, "oracle"),
    # which would call this function again
    oracle = importlib.import_module(".oracle", __name__)
    globals().update((n, getattr(oracle, n)) for n in _ORACLE_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "oracle"})
