"""The package's public surface: what ``oddsrule`` exports, and what it
no longer does."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports from src/,
    where no earlier test has loaded oddsrule.oracle."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_oracle_names_resolve_in_a_fresh_interpreter():
    # oracle.py loads on first use; both routes reach the same objects
    assert _fresh(
        "import sys, oddsrule\n"
        "print('oddsrule.oracle' in sys.modules)\n"
        "print(oddsrule.oracle.lindley_threshold is oddsrule.lindley_threshold)\n"
        "print(oddsrule.DPResult is oddsrule.oracle.DPResult)\n"
    ).split() == ["False", "True", "True"]


def test_dir_lists_every_public_name_before_the_oracles_load():
    assert _fresh(
        "import sys, oddsrule\n"
        "print(sorted(set(oddsrule.__all__) - set(dir(oddsrule))))\n"
        "print('oddsrule.oracle' in sys.modules)\n"
    ).split() == ["[]", "False"]


def test_star_import_binds_every_public_name():
    assert _fresh(
        "from oddsrule import *\n"
        "import oddsrule\n"
        "print(len(oddsrule.__all__), sorted(set(oddsrule.__all__) - set(globals())))\n"
    ).split() == ["39", "[]"]


def test_an_unknown_name_still_raises_attribute_error():
    assert _fresh(
        "import sys, oddsrule\n"
        "try:\n"
        "    oddsrule.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print('oddsrule.oracle' in sys.modules)\n"
    ).splitlines() == ["module 'oddsrule' has no attribute 'no_such_name'", "False"]
