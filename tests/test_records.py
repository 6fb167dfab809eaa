"""The contract of the package's public records.

Every record is immutable and pickles to an equal record.  The result
records are ``typing.NamedTuple`` classes, so they also unpack and compare
equal to a plain tuple of their values; ``OddsSequence`` is a plain class
whose ``==``, ``hash``, ``repr`` and pickle see only ``p`` and ``r``.
"""

import ast
import pickle
from pathlib import Path

import pytest

import oddsrule
from oddsrule import (
    bound_report,
    cross_check,
    dp_optimal_value,
    lower_bound,
    lower_near_extremal_case3,
    monte_carlo,
    threshold,
    validate_probabilities,
    win_probability,
)

ROOT = Path(__file__).resolve().parents[1]


def records() -> dict[str, tuple[object, str]]:
    """{class name: (an instance, one of its fields)} for every record."""
    seq = validate_probabilities([0.1, 0.4, 0.3, 0.2])
    t = threshold(seq)
    cfg = lower_near_extremal_case3(6, 2)
    return {
        "OddsSequence": (seq, "p"),
        "ThresholdResult": (t, "s"),
        "WinProbability": (win_probability(seq, t), "value"),
        "BoundReport": (bound_report(seq), "v_n"),
        "LowerBound": (lower_bound(seq.n, t.s, t.R_s), "case"),
        "ExtremalConfig": (cfg, "seq"),
        "GenerationParameters": (cfg.parameters, "alpha"),
        "DPResult": (dp_optimal_value(seq), "value"),
        "SimulationReport": (monte_carlo(seq, t.s, 100, 1), "wins"),
        "CrossCheck": (cross_check(seq, 100, 1), "agree"),
    }


RECORDS = records()


def test_every_public_record_is_checked():
    classes = {
        name
        for name in oddsrule.__all__
        if isinstance(getattr(oddsrule, name), type)
        and not issubclass(getattr(oddsrule, name), Exception)
    }
    assert classes == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_assignment_and_deletion(name):
    record, field = RECORDS[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_pickles_to_an_equal_record(name):
    record, _ = RECORDS[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_sequence_repr_names_only_p_and_r():
    seq = validate_probabilities([0.5])
    bound_report(seq)  # fills the memos
    assert repr(seq) == "OddsSequence(p=(0.5,), r=(1.0,))"


def test_sequence_is_not_a_tuple():
    seq, _ = RECORDS["OddsSequence"]
    assert seq != (seq.p, seq.r)
    assert seq.__eq__((seq.p, seq.r)) is NotImplemented


def test_named_tuple_record_is_a_tuple():
    t, _ = RECORDS["ThresholdResult"]
    assert t == (t.s, t.R_s, t.boundary_flag)
    s, R_s, boundary_flag = t
    assert (s, R_s, boundary_flag) == (t.s, t.R_s, t.boundary_flag)
    assert t._replace(s=1) == (1, t.R_s, t.boundary_flag)
    assert repr(t) == f"ThresholdResult(s={t.s!r}, R_s={t.R_s!r}, boundary_flag={t.boundary_flag!r})"


def modules_importing(module: str) -> list[str]:
    """Names of the files in src/oddsrule/ that import ``module``."""
    found = []
    for path in sorted((ROOT / "src" / "oddsrule").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if module in names:
                found.append(path.name)
                break
    return found


def test_only_the_oracle_imports_dataclasses():
    # The records are NamedTuples or plain classes.  DPResult alone stays a
    # frozen dataclass until the benchmark stops calling dataclasses.replace
    # on it (ROADMAP item 6); no other record should drift back.
    assert modules_importing("dataclasses") == ["oracle.py"]
