"""Optimal stopping on independent indicator sequences.

The odds rule, the exact success probability of stopping on the last
success, sharp upper/lower bounds with their attaining configurations,
and a set of independent verification oracles (dynamic programming,
exhaustive enumeration, Monte Carlo).
"""

from .bounds import (
    BoundReport,
    LowerBound,
    PriorBounds,
    bound_report,
    corollary_bound,
    log_product_gap,
    lower_bound,
    prior_bounds,
    upper_bound,
)
from .core import (
    OddsSequence,
    ThresholdResult,
    WinProbability,
    lindley_threshold,
    odds_to_prob,
    prob_to_odds,
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
    NegativeInput,
    NotANumber,
    OddsRuleError,
    OutOfRange,
    TooLarge,
)
from .extremal import (
    ExtremalConfig,
    GenerationParameters,
    equal_odds_sequence,
    lower_extremal_case1,
    lower_extremal_case2,
    lower_near_extremal_case3,
    upper_extremal,
)
from .oracle import (
    DPResult,
    SimulationReport,
    dp_optimal_value,
    exhaustive_value,
    monte_carlo,
    threshold_rule_value,
    threshold_rule_values,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DPResult",
    "EmptySequence",
    "ExtremalConfig",
    "GenerationParameters",
    "InconsistentInput",
    "IndexOutOfRange",
    "InternalBoundViolation",
    "InvalidArgument",
    "LowerBound",
    "NegativeInput",
    "NotANumber",
    "OddsRuleError",
    "OddsSequence",
    "OutOfRange",
    "PriorBounds",
    "SimulationReport",
    "ThresholdResult",
    "TooLarge",
    "WinProbability",
    "bound_report",
    "corollary_bound",
    "dp_optimal_value",
    "equal_odds_sequence",
    "exhaustive_value",
    "lindley_threshold",
    "log_product_gap",
    "lower_bound",
    "lower_extremal_case1",
    "lower_extremal_case2",
    "lower_near_extremal_case3",
    "monte_carlo",
    "odds_to_prob",
    "prior_bounds",
    "prob_to_odds",
    "secretary_sequence",
    "threshold",
    "threshold_rule_value",
    "threshold_rule_values",
    "upper_bound",
    "upper_extremal",
    "validate_probabilities",
    "win_probability",
]
