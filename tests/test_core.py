import math
from fractions import Fraction

import pytest

from exact_oracle import exact_threshold, exact_win, exact_window_win
from oddsrule import (
    EmptySequence,
    IndexOutOfRange,
    InvalidArgument,
    NotANumber,
    OutOfRange,
    ThresholdResult,
    lindley_threshold,
    odds_to_prob,
    prob_to_odds,
    secretary_sequence,
    threshold,
    validate_probabilities,
    win_probability,
)


class TestValidate:
    def test_half_half(self):
        seq = validate_probabilities([0.5, 0.5])
        assert seq.r == (1.0, 1.0)
        assert seq.R == (2.0, 1.0)

    def test_sure_success_gives_infinite_odds(self):
        seq = validate_probabilities([1.0, 0.2])
        assert seq.r == (math.inf, 0.25)
        assert seq.R == (math.inf, 0.25)

    def test_out_of_range_carries_index(self):
        with pytest.raises(OutOfRange) as err:
            validate_probabilities([0.3, -0.1])
        assert err.value.index == 2

    def test_rejects_empty(self):
        with pytest.raises(EmptySequence):
            validate_probabilities([])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NotANumber) as err:
            validate_probabilities([0.2, math.nan])
        assert err.value.index == 2
        with pytest.raises(NotANumber):
            validate_probabilities([math.inf])

    def test_integer_beyond_float_range_is_out_of_range(self):
        with pytest.raises(OutOfRange) as err:
            validate_probabilities([0.5, 10**400])
        assert (err.value.index, err.value.value) == (2, 10**400)
        # past the interpreter's 4300-digit str() limit the message gives bits
        with pytest.raises(OutOfRange, match="an integer of 16610 bits"):
            validate_probabilities([10**5000])

    @pytest.mark.parametrize("bad", [None, 0.5j, "half"], ids=["None", "complex", "text"])
    def test_entry_float_rejects_is_not_a_number(self, bad):
        with pytest.raises(NotANumber) as err:
            validate_probabilities([0.5, 0.25, bad, 10**400])
        assert err.value.index == 3
        assert err.value.value is bad

    def test_suffix_sums_nonincreasing(self):
        seq = validate_probabilities([0.1, 0.9, 0.0, 0.4, 0.4])
        for a, b in zip(seq.R, seq.R[1:]):
            assert a >= b
        assert seq.R[-1] == seq.r[-1]

    def test_odds_round_trip(self):
        seq = validate_probabilities([0.1, 0.25, 0.5, 0.75, 0.9, 0.999])
        for p, r in zip(seq.p, seq.r):
            assert abs(odds_to_prob(r) - p) <= 1e-15

    def test_prob_odds_helpers(self):
        assert prob_to_odds(1.0) == math.inf
        assert prob_to_odds(0.0) == 0.0
        assert odds_to_prob(math.inf) == 1.0
        assert odds_to_prob(0.0) == 0.0


class TestThreshold:
    def test_single_mass_at_three(self):
        t = threshold(validate_probabilities([0, 0, 0.5, 0, 0]))
        assert t.s == 3
        assert t.R_s == 1.0

    def test_all_zero_takes_empty_max_branch(self):
        t = threshold(validate_probabilities([0, 0, 0]))
        assert t.s == 1
        assert t.R_s == 0.0

    def test_secretary_ten(self):
        t = threshold(secretary_sequence(10))
        assert t.s == 4
        assert t.s == lindley_threshold(10)

    def test_half_half_picks_late_index(self):
        t = threshold(validate_probabilities([0.5, 0.5]))
        assert t.s == 2
        assert t.R_s == 1.0

    def test_defining_inequalities(self):
        for probs in ([0.3, 0.6, 0.2], [0.9, 0.1], [0.05] * 8, [0.4] * 5):
            seq = validate_probabilities(probs)
            t = threshold(seq)
            if t.s > 1:
                assert seq.R[t.s - 1] >= 1.0
            if t.s < seq.n:
                assert seq.R[t.s] < 1.0
            if seq.R[0] < 1.0:
                assert t.s == 1
            assert t.s == exact_threshold(probs)

    def test_boundary_flag(self):
        assert threshold(validate_probabilities([0.5, 0.5])).boundary_flag
        assert not threshold(validate_probabilities([0.3])).boundary_flag
        # infinite sums never trip the flag
        assert not threshold(validate_probabilities([1.0, 0.1])).boundary_flag


class TestWinProbability:
    def test_single_mass(self):
        seq = validate_probabilities([0, 0, 0.5, 0, 0])
        w = win_probability(seq, threshold(seq))
        assert w.value == 0.5
        assert w.product_form == pytest.approx(0.5, abs=1e-15)

    def test_single_item(self):
        seq = validate_probabilities([0.3])
        assert win_probability(seq, threshold(seq)).value == 0.3

    def test_constant_fifth(self):
        # p_j = 1/5 on n = 4: all odds 1/4, R_1 = 1, s = 1,
        # V = 4 * 0.2 * 0.8^3 = 0.4096 exactly.
        seq = validate_probabilities([0.2, 0.2, 0.2, 0.2])
        t = threshold(seq)
        assert t.s == 1
        v = win_probability(seq, t).value
        assert v == pytest.approx(0.4096, abs=1e-15)
        assert float(exact_win([0.2, 0.2, 0.2, 0.2])) == pytest.approx(v, abs=1e-15)

    def test_secretary_ten_value(self):
        seq = secretary_sequence(10)
        v = win_probability(seq, threshold(seq)).value
        exact = exact_win(list(seq.p))
        assert abs(v - float(exact)) <= 1e-12

    def test_window_with_sure_success(self):
        # p_2 = 1 puts the threshold at 2 and kills the product form.
        seq = validate_probabilities([0.3, 1.0, 0.4])
        t = threshold(seq)
        assert t.s == 2
        w = win_probability(seq, t)
        assert w.value == pytest.approx(0.6, abs=1e-15)  # 1 * (1 - 0.4)
        assert w.product_form is None

    def test_all_sure(self):
        seq = validate_probabilities([1.0])
        w = win_probability(seq, threshold(seq))
        assert w.value == 1.0

    def test_two_sure_successes_window(self):
        # threshold lands on the last p = 1, so the window has one of them
        seq = validate_probabilities([1.0, 1.0, 0.4])
        t = threshold(seq)
        assert t.s == 2
        assert win_probability(seq, t).value == pytest.approx(0.6, abs=1e-15)

    def test_forms_agree(self):
        for probs in ([0.3, 0.6, 0.2], [0.05] * 10, [0.9, 0.8, 0.7], [0.4]):
            seq = validate_probabilities(probs)
            t = threshold(seq)
            w = win_probability(seq, t)
            a = float(exact_window_win(probs, t.s))
            b = w.value
            c = w.product_form
            assert abs(a - b) <= 1e-12
            assert abs(a - c) <= 1e-12

    def test_window_index_checked(self):
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(IndexOutOfRange):
            win_probability(seq, ThresholdResult(s=0, R_s=2.0, boundary_flag=True))
        with pytest.raises(IndexOutOfRange):
            win_probability(seq, ThresholdResult(s=3, R_s=0.0, boundary_flag=True))

    def test_window_must_start_at_the_threshold(self):
        # R_2 = 1 puts the threshold at 2, so s = 1 is not it
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(InvalidArgument):
            win_probability(seq, ThresholdResult(s=1, R_s=2.0, boundary_flag=True))

    def test_append_sure_failure_changes_nothing(self):
        base = [0.3, 0.6, 0.2, 0.05]
        seq = validate_probabilities(base)
        ext = validate_probabilities(base + [0.0])
        t, t2 = threshold(seq), threshold(ext)
        assert t.s == t2.s
        v = win_probability(seq, t).value
        v2 = win_probability(ext, t2).value
        assert v == v2

    def test_prefix_permutation_invariance(self):
        # V_n depends only on the window [s, n]; shuffling what comes
        # before cannot move s or the value.
        probs = [0.2, 0.1, 0.05, 0.45, 0.45]
        seq = validate_probabilities(probs)
        s = threshold(seq).s
        assert s == 4
        v = win_probability(seq, threshold(seq)).value
        for prefix in ([0.05, 0.2, 0.1], [0.1, 0.05, 0.2], [0.0, 0.0, 0.0]):
            shuffled = validate_probabilities(prefix + probs[3:])
            t2 = threshold(shuffled)
            assert t2.s == s
            assert win_probability(shuffled, t2).value == v

    def test_large_near_tie_matches_decimal_reference(self, large_near_tie):
        # 99 918 equal factors 1 - p: the product must not repeat their
        # rounding error (a product of rounded factors is off by 2e-12)
        seq, s, want = large_near_tie
        w = win_probability(seq, threshold(seq))
        assert abs(w.value - want) <= 1e-15


class TestSecretary:
    def test_length_one(self):
        assert secretary_sequence(1).p == (1.0,)

    def test_definition(self):
        assert secretary_sequence(3).p == (1.0, 0.5, 1.0 / 3.0)

    def test_five(self):
        seq = secretary_sequence(5)
        t = threshold(seq)
        assert t.s == 3
        v = win_probability(seq, t).value
        assert v == pytest.approx(13.0 / 30.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(EmptySequence):
            secretary_sequence(0)


class TestLindley:
    def test_reference_values(self):
        assert lindley_threshold(10) == 4
        assert lindley_threshold(100) == 38

    def test_small_n(self):
        # a_1 = 1 >= 1 > a_2 = 0 picks k = 2 for n = 2; n = 1 falls back
        # to the empty-sum branch.
        assert lindley_threshold(2) == 2
        assert lindley_threshold(1) == 1

    def test_matches_odds_threshold(self):
        for n in range(2, 120):
            assert lindley_threshold(n) == threshold(secretary_sequence(n)).s

    def test_rejects_nonpositive(self):
        with pytest.raises(EmptySequence):
            lindley_threshold(0)
