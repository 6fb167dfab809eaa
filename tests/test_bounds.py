import math
from fractions import Fraction

import numpy as np
import pytest

from exact_oracle import (
    NegativeInput,
    equal_odds_sequence,
    exact_win,
    log_product_gap,
    prior_bounds,
)
from oddsrule import (
    BoundReport,
    InconsistentInput,
    InvalidArgument,
    NotANumber,
    bound_report,
    corollary_bound,
    lower_bound,
    secretary_sequence,
    threshold,
    upper_bound,
    validate_probabilities,
    win_probability,
)
from oddsrule.bounds import EQUALITY_TOL


class TestUpperBound:
    def test_unit_sum_gives_half(self):
        assert upper_bound(1.0) == 0.5

    def test_zero_sum(self):
        assert upper_bound(0.0) == 0.0

    def test_three(self):
        assert upper_bound(3.0) == 0.75

    def test_infinite_sum(self):
        assert upper_bound(math.inf) == 1.0

    def test_refuses_a_nan_or_negative_sum(self):
        # these raised ZeroDivisionError or returned -1.0, 2.0, nan and 1.0
        for R_s in (-1.0, -0.5, -2.0, math.nan, -math.inf):
            with pytest.raises(InconsistentInput, match="need R_s >= 0"):
                upper_bound(R_s)

    def test_refuses_a_non_number(self):
        for R_s in ("x", None, 1j):
            with pytest.raises(InvalidArgument):
                upper_bound(R_s)


class TestLowerBound:
    def test_case1(self):
        case, value, strict = lower_bound(2, 1, 0.5)
        assert case == 1 and not strict
        assert value == pytest.approx(0.32, abs=1e-15)
        # cross-check: the constant config p = [0.2, 0.2] attains it
        assert float(exact_win([0.2, 0.2])) == pytest.approx(0.32, abs=1e-15)

    def test_case2(self):
        case, value, strict = lower_bound(4, 1, 1.0)
        assert case == 2 and not strict
        assert value == pytest.approx(0.4096, abs=1e-15)

    def test_case3(self):
        case, value, strict = lower_bound(5, 3, 2.0)
        assert case == 3 and strict
        assert value == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_boundary_belongs_to_case2(self):
        # the separating value 1 + 1/(n-s) sits in the closed case-2 interval
        n, s = 7, 4
        sep = 1.0 + 1.0 / (n - s)
        assert lower_bound(n, s, sep).case == 2
        assert lower_bound(n, s, math.nextafter(sep, 2.0)).case == 3

    def test_s_equals_n_never_case3(self):
        assert lower_bound(6, 6, 1.0).case == 2
        assert lower_bound(6, 6, 100.0).case == 2
        assert lower_bound(6, 6, 100.0).value == 0.5
        assert lower_bound(6, 6, math.inf).case == 2

    def test_sub_unit_sum_with_late_threshold_rejected(self):
        with pytest.raises(InconsistentInput):
            lower_bound(5, 2, 0.5)

    def test_bad_inputs(self):
        with pytest.raises(InconsistentInput):
            lower_bound(5, 0, 0.5)
        with pytest.raises(InconsistentInput):
            lower_bound(5, 6, 1.0)
        with pytest.raises(InconsistentInput):
            lower_bound(5, 1, -0.1)
        with pytest.raises(InconsistentInput, match="need R_s >= 0"):
            lower_bound(5, 1, math.nan)
        with pytest.raises(InvalidArgument):
            lower_bound(5, 2, "1.5")


class TestCorollaryBound:
    def test_reference_value(self):
        assert corollary_bound(10, 4) == pytest.approx(float(Fraction(7, 8) ** 7), abs=1e-15)

    def test_last_index(self):
        assert corollary_bound(9, 9) == 0.5

    def test_matches_case2_at_first_index(self):
        assert corollary_bound(4, 1) == pytest.approx(0.4096, abs=1e-15)

    def test_strictly_increasing_in_s(self):
        for n in (2, 3, 5, 10, 40, 200):
            values = [corollary_bound(n, s) for s in range(1, n + 1)]
            for a, b in zip(values, values[1:]):
                assert a < b

    def test_reproduces_allaart_islas_at_s1(self):
        for n in range(1, 201):
            ai = prior_bounds(validate_probabilities([0.5] * n)).ai_value
            assert abs(corollary_bound(n, 1) - ai) <= 1e-15


class TestPriorBounds:
    def test_equality_configuration(self):
        n = 3
        seq = validate_probabilities([1.0 / (n + 1)] * n)
        prior = prior_bounds(seq)
        assert prior.e_applicable
        assert prior.ai_value == pytest.approx(0.421875, abs=1e-15)
        v = win_probability(seq, threshold(seq)).value
        assert v == pytest.approx(0.421875, abs=1e-15)

    def test_not_applicable_below_unit_sum(self):
        prior = prior_bounds(validate_probabilities([0.1]))
        assert not prior.e_applicable

    def test_e_bound_on_applicable_sequences(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 50:
            n = int(rng.integers(1, 30))
            seq = validate_probabilities(rng.uniform(0, 0.95, size=n).tolist())
            prior = prior_bounds(seq)
            if not prior.e_applicable:
                continue
            found += 1
            v = win_probability(seq, threshold(seq)).value
            assert v > prior.e_value
            assert v >= prior.ai_value - 1e-12


class TestLogProductGap:
    def test_singleton_is_exactly_zero(self):
        for a in (0.0, 1e-18, 0.3, 2.0, 1e6):
            assert log_product_gap([a]) == 0.0

    def test_one_hot_is_exactly_zero(self):
        assert log_product_gap([2.0, 0.0, 0.0]) == 0.0
        assert log_product_gap([0.0, 0.0, 7.5]) == 0.0

    def test_two_ones(self):
        assert log_product_gap([1.0, 1.0]) == pytest.approx(
            math.log(4.0) - math.log(3.0), abs=1e-15
        )

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            xs = rng.uniform(0, 10, size=int(rng.integers(1, 20))).tolist()
            gap = log_product_gap(xs)
            direct = math.fsum(math.log1p(x) for x in xs) - math.log1p(math.fsum(xs))
            assert gap >= 0.0
            assert gap == pytest.approx(direct, rel=1e-12, abs=1e-13)

    def test_nonnegative_on_tiny_near_onehot(self):
        # the naive difference of logs rounds negative here
        assert log_product_gap([1.0, 1e-18]) >= 0.0
        assert log_product_gap([1e-200, 1e-200]) >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(NegativeInput):
            log_product_gap([0.5, -0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(NotANumber):
            log_product_gap([1.0, math.inf])


class TestBoundReport:
    def test_fields_are_what_bound_report_decides(self):
        # the threshold and the odds-ratio form have their own records,
        # and a violated bound raises, so none of them is copied here
        assert list(BoundReport._fields) == [
            "v_n", "upper", "lower", "lower_case", "lower_strict", "corollary",
            "corollary_applicable", "e_bound_applicable", "e_bound", "allaart_islas",
            "equality",
        ]

    def test_large_near_tie_holds(self, large_near_tie):
        # V_n sits on the case-2 bound; an inaccurate V_n fell below it
        # by 2e-12 and raised InternalBoundViolation
        seq, s, _ = large_near_tie
        bound_report(seq)
        assert threshold(seq).s == s

    def test_upper_equality_config(self):
        report = bound_report(validate_probabilities([0, 0, 0.5, 0, 0]))
        assert report.upper == 0.5
        assert report.v_n == 0.5
        assert report.equality["upper"]
        assert report.v_n <= report.upper + EQUALITY_TOL

    def test_case2_equality_config(self):
        report = bound_report(validate_probabilities([0.2, 0.2, 0.2, 0.2]))
        assert report.lower_case == 2
        assert report.lower == pytest.approx(0.4096, abs=1e-15)
        assert report.equality["lower"]
        assert report.equality["allaart_islas"]

    def test_all_zero(self):
        report = bound_report(validate_probabilities([0, 0, 0]))
        assert report.v_n == 0.0
        assert report.upper == 0.0
        assert report.lower_case == 1
        assert report.lower == 0.0
        assert not report.e_bound_applicable

    def test_corollary_applicability_label(self):
        assert not bound_report(validate_probabilities([0.4, 0.2])).corollary_applicable
        assert bound_report(secretary_sequence(10)).corollary_applicable

    def test_case3_is_marked_strict(self):
        # heavy tail forces R_s well past 1 + 1/(n-s)
        report = bound_report(validate_probabilities([0.0, 0.9, 0.1, 0.1]))
        assert report.lower_case == 3
        assert report.lower_strict
        assert report.v_n > report.lower

    def test_sandwich_on_random_corpus(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            report = bound_report(
                validate_probabilities(rng.uniform(0, 0.95, size=n).tolist())
            )
            assert report.lower - 1e-12 <= report.v_n <= report.upper + 1e-12
            assert 0.0 <= report.lower <= report.upper <= 1.0


class TestEqualOddsContradiction:
    def test_tail_sum_exceeds_one(self):
        # spreading an above-separator sum equally makes the tail sum
        # pass 1 on its own, so the nominal s cannot be the threshold
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            s = int(rng.integers(1, n))
            R_s = (1.0 + 1.0 / (n - s)) * rng.uniform(1.01, 3.0)
            seq = equal_odds_sequence(n, s, R_s)
            assert seq.R[s] > 1.0          # R_{s+1}
            assert threshold(seq).s > s
