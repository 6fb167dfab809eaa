"""The package's public surface: what ``oddsrule`` exports, and what it
no longer does."""

import importlib

import oddsrule

PUBLIC_NAMES = {
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
}

# test-only helpers, now in tests/exact_oracle.py or folded into bound_report
REMOVED_NAMES = (
    "NegativeInput",
    "PriorBounds",
    "equal_odds_sequence",
    "log_product_gap",
    "prior_bounds",
    "prob_to_odds",
)

MODULES = ("oddsrule", "oddsrule.bounds", "oddsrule.cli", "oddsrule.core",
           "oddsrule.errors", "oddsrule.extremal", "oddsrule.oracle")


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 39
    assert len(oddsrule.__all__) == len(PUBLIC_NAMES)
    assert set(oddsrule.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in oddsrule.__all__ if not hasattr(oddsrule, name)] == []


def test_removed_names_are_gone_from_every_module():
    modules = [importlib.import_module(module) for module in MODULES]
    found = [
        f"{mod.__name__}.{name}" for mod in modules for name in REMOVED_NAMES
        if hasattr(mod, name)
    ]
    assert found == []


def test_lindley_threshold_lives_with_the_oracles():
    assert oddsrule.oracle.lindley_threshold is oddsrule.lindley_threshold
