"""Optimal stopping on independent indicator sequences.

The odds rule, the exact success probability of stopping on the last
success, sharp upper/lower bounds with their attaining configurations,
and a set of independent verification oracles (dynamic programming,
Lindley's threshold, exhaustive enumeration, Monte Carlo).
"""

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
from .oracle import (
    CrossCheck,
    DPResult,
    SimulationReport,
    cross_check,
    dp_optimal_value,
    exhaustive_value,
    lindley_threshold,
    monte_carlo,
    threshold_rule_value,
    threshold_rule_values,
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
