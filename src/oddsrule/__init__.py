"""Optimal stopping on independent indicator sequences.

The odds rule, the exact success probability of stopping on the last
success, sharp upper/lower bounds with their attaining configurations,
and a set of independent verification oracles (dynamic programming,
the family of threshold rules, Lindley's threshold, exhaustive
enumeration, Monte Carlo).
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
    # oracle.py loads on first use of one of its names (or of oddsrule.oracle):
    # it imports dataclasses, and with it inspect, ast and dis, which only the
    # commands that check or simulate need.  Its names are those of __all__
    # that the imports above leave unbound, and only an unbound name gets here.
    if name != "oracle" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import oracle": that first asks hasattr(oddsrule, "oracle"),
    # which would call this function again
    oracle = importlib.import_module(".oracle", __name__)
    globals().update({n: getattr(oracle, n) for n in __all__ if n not in globals()})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "oracle"})
