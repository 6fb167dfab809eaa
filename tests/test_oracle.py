import math
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from exact_oracle import exact_window_win, full_enumeration_value
from oddsrule import (
    IndexOutOfRange,
    InvalidArgument,
    TooLarge,
    cross_check,
    dp_optimal_value,
    exhaustive_value,
    monte_carlo,
    secretary_sequence,
    threshold,
    threshold_rule_value,
    threshold_rule_values,
    validate_probabilities,
    win_probability,
)
from oddsrule.oracle import _exact_sum
from traced import traced_peak


# the oracle-check families at n = 20, and a sequence whose threshold is n
ORACLE_FAMILIES_20 = {
    "uniform": np.random.default_rng(20).random(20).tolist(),
    "secretary": [1 / j for j in range(1, 21)],
    "small_p": np.random.default_rng(21).beta(1.0, 10.0, 20).tolist(),
    "near_tie_a": [0.5] + [1 / 20] * 19,
    "near_tie_b": [0.0, 0.3] + [1 / 19] * 18,
    "s_equals_n": [j / 40 for j in range(1, 20)] + [0.75],
}

# k values that are not integers: each oracle refuses them with the
# package's own error, not a TypeError from the arithmetic
non_integer_k = pytest.mark.parametrize("k", [2.0, 2.5, "2", None], ids=["2.0", "2.5", "str", "None"])


class TestDP:
    def test_single_item(self):
        res = dp_optimal_value(validate_probabilities([0.3]))
        assert res.value == 0.3
        assert res.stop_set == {1}
        assert res.continuation == (0.3, 0.0)

    def test_tie_continues(self):
        # at k = 1 stopping and continuing are both worth 0.5; the
        # stop-late convention keeps 1 out of the stop set
        res = dp_optimal_value(validate_probabilities([0.5, 0.5]))
        assert res.value == 0.5
        assert res.stop_set == {2}
        assert res.continuation == (0.5, 0.5, 0.0)

    def test_secretary_ten(self):
        seq = secretary_sequence(10)
        res = dp_optimal_value(seq)
        v = win_probability(seq, threshold(seq)).value
        assert abs(res.value - v) <= 1e-12
        assert min(res.stop_set) == 4

    def test_recurrence_invariant(self):
        seq = validate_probabilities([0.3, 0.8, 0.1, 0.5])
        res = dp_optimal_value(seq)
        n = seq.n
        q_suffix = [1.0] * (n + 1)
        for k in range(n, 0, -1):
            q_suffix[k - 1] = (1.0 - seq.p[k - 1]) * q_suffix[k]
        for k in range(1, n + 1):
            expect = seq.p[k - 1] * max(q_suffix[k], res.continuation[k]) + (
                1.0 - seq.p[k - 1]
            ) * res.continuation[k]
            assert res.continuation[k - 1] == pytest.approx(expect, abs=1e-15)
        assert res.stop_set == {
            k for k in range(1, n + 1) if q_suffix[k] > res.continuation[k]
        }

    def test_sure_success_handled(self):
        res = dp_optimal_value(validate_probabilities([1.0, 0.2]))
        assert res.value == pytest.approx(0.8, abs=1e-15)

    def test_matches_formula_on_randoms(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            seq = validate_probabilities(rng.uniform(0, 0.99, size=n).tolist())
            t = threshold(seq)
            v = win_probability(seq, t).value
            res = dp_optimal_value(seq)
            assert abs(res.value - v) <= 1e-12
            if not t.boundary_flag:
                assert min(res.stop_set) == t.s


class TestThresholdRule:
    def test_half_half_both_rules_tie(self):
        seq = validate_probabilities([0.5, 0.5])
        assert threshold_rule_value(seq, 1) == 0.5
        assert threshold_rule_value(seq, 2) == 0.5

    def test_rule_at_s_is_the_odds_rule(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            seq = validate_probabilities(rng.uniform(0, 0.98, size=n).tolist())
            t = threshold(seq)
            v = win_probability(seq, t).value
            assert abs(threshold_rule_value(seq, t.s) - v) <= 1e-12

    def test_dead_window(self):
        seq = validate_probabilities([0, 0, 0.5, 0, 0])
        assert threshold_rule_value(seq, 5) == 0.0

    def test_index_checked(self):
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(IndexOutOfRange):
            threshold_rule_value(seq, 0)
        with pytest.raises(IndexOutOfRange):
            threshold_rule_value(seq, 3)

    @non_integer_k
    def test_non_integer_k_is_invalid(self, k):
        seq = validate_probabilities([0.5, 0.5, 0.5])
        with pytest.raises(InvalidArgument, match="k must be an integer"):
            threshold_rule_value(seq, k)

    def test_integer_like_k_is_accepted(self):
        seq = validate_probabilities([0.5, 0.3, 0.2])
        assert threshold_rule_value(seq, np.int64(2)) == threshold_rule_value(seq, 2)

    def test_sweep_matches_single_calls(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(1, 25))
            p = rng.uniform(0, 1, size=n)
            p[rng.random(n) < 0.1] = 1.0  # sprinkle sure successes
            seq = validate_probabilities(p.tolist())
            sweep = threshold_rule_values(seq)
            assert len(sweep) == n
            for k in range(1, n + 1):
                assert sweep[k - 1] == pytest.approx(
                    threshold_rule_value(seq, k), abs=1e-15
                )

    def test_optimum_attained_at_s(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            seq = validate_probabilities(rng.uniform(0, 0.95, size=n).tolist())
            t = threshold(seq)
            sweep = threshold_rule_values(seq)
            v = win_probability(seq, t).value
            assert abs(max(sweep) - v) <= 1e-12
            assert sweep[t.s - 1] >= max(sweep) - 1e-12

    def test_large_near_tie_matches_decimal_reference(self, large_near_tie):
        seq, s, want = large_near_tie
        assert abs(dp_optimal_value(seq).value - want) <= 1e-13
        assert abs(max(threshold_rule_values(seq)) - want) <= 1e-13
        assert abs(threshold_rule_value(seq, s) - want) <= 1e-13


class TestExhaustive:
    def test_four_outcomes_by_hand(self):
        # rule k = 2 on [0.5, 0.5]: of the four outcomes, (0,1) and (1,1)
        # stop at index 2 with no later success, so the rule wins on
        # exactly those, total weight 0.5
        seq = validate_probabilities([0.5, 0.5])
        assert exhaustive_value(seq, 2) == pytest.approx(0.5, abs=1e-15)

    def test_single_item(self):
        assert exhaustive_value(validate_probabilities([0.3]), 1) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_agrees_with_rule_values(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            p = rng.uniform(0, 1, size=n)
            p[rng.random(n) < 0.1] = 1.0
            seq = validate_probabilities(p.tolist())
            k = int(rng.integers(1, n + 1))
            assert abs(
                exhaustive_value(seq, k) - threshold_rule_value(seq, k)
            ) <= 1e-12

    def test_agrees_with_exact_rational(self):
        probs = [0.3, 1.0, 0.25, 0.6]
        seq = validate_probabilities(probs)
        for k in range(1, 5):
            want = float(exact_window_win(probs, k))
            assert exhaustive_value(seq, k) == pytest.approx(want, abs=1e-15)

    def test_memory_at_the_size_cap(self):
        seq = secretary_sequence(20)
        assert traced_peak(lambda: exhaustive_value(seq, threshold(seq).s)) < 24 * 2**20

    @pytest.mark.parametrize("family", list(ORACLE_FAMILIES_20))
    def test_bits_match_full_enumeration_at_the_size_cap(self, family):
        seq = validate_probabilities(ORACLE_FAMILIES_20[family])
        for k in sorted({1, threshold(seq).s, seq.n}):
            assert exhaustive_value(seq, k).hex() == full_enumeration_value(seq, k).hex()

    def test_memory_worst_case_window(self):
        # k = n = 20: all 2^19 prefixes, each with its one window success,
        # streamed through slices of 2^16
        seq = validate_probabilities(ORACLE_FAMILIES_20["s_equals_n"])
        assert threshold(seq).s == 20
        assert traced_peak(exhaustive_value, seq, 20) < 4 * 2**20

    def test_memory_two_column_window(self):
        # k = 19: 2^18 prefixes, each with two places for the window success
        seq = validate_probabilities(ORACLE_FAMILIES_20["s_equals_n"])
        assert traced_peak(exhaustive_value, seq, 19) < 4 * 2**20

    @pytest.mark.parametrize("k", [17, 18, 19, 20])
    @pytest.mark.parametrize("turn", range(4))
    def test_bits_at_the_slice_seams(self, k, turn):
        # n = 20: a slice holds the 2^J prefixes built once (J = 14, 14, 15
        # and 16 for k = 17..20), scaled by one setting of the prefix
        # trials J+1..k-1 past them, times the window's 20 - k + 1 columns.
        # The extreme values take turns at the first and the last of those
        # prefix trials and at the first and the last window trial.
        extremes = [-0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
        j = {17: 14, 18: 14, 19: 15, 20: 16}[k]
        probs = np.random.default_rng(k).random(20).tolist()
        for i, place in enumerate([j, k - 2, k - 1, 19]):
            probs[place] = extremes[(turn + i) % 4]
        seq = validate_probabilities(probs)
        assert exhaustive_value(seq, k).hex() == full_enumeration_value(seq, k).hex()

    def test_memory_widest_window(self):
        # k = 1: no prefix, and one outcome per place of the one success
        seq = secretary_sequence(20)
        assert traced_peak(exhaustive_value, seq, 1) < 2**20

    def test_size_cap(self):
        seq = validate_probabilities([0.5] * 21)
        with pytest.raises(TooLarge):
            exhaustive_value(seq, 1)

    def test_index_checked(self):
        seq = validate_probabilities([0.5])
        with pytest.raises(IndexOutOfRange):
            exhaustive_value(seq, 2)

    @non_integer_k
    def test_non_integer_k_is_invalid(self, k):
        seq = validate_probabilities([0.5, 0.5, 0.5])
        with pytest.raises(InvalidArgument, match="k must be an integer"):
            exhaustive_value(seq, k)


def _slices(w):
    """``w`` in consecutive slices of 2^16, as exhaustive_value streams it."""
    return [w[i : i + 2**16] for i in range(0, w.size, 2**16)]


class TestExactSum:
    """``oracle._exact_sum`` returns the bits of math.fsum on its slices."""

    @pytest.mark.parametrize(
        "weights, want",
        [
            ([1.0, 2**-53], 1.0),
            ([1.0, 2**-53, 5e-324], 1.0 + 2**-52),
            ([1.0 + 2**-52, 2**-53], 1.0 + 2**-51),
            ([5e-324] * 3, 1.5e-323),
            ([-0.0, 0.0], 0.0),
            ([-0.0], 0.0),
            ([1.0], 1.0),
        ],
        ids=["tie_to_even", "past_the_tie", "tie_up_to_even", "subnormals", "signed_zeros",
             "negative_zero", "one"],
    )
    def test_rounds_once_half_to_even(self, weights, want):
        # the exact sum is rounded once: a tie goes to the even neighbour,
        # and the smallest subnormal past it breaks the tie; a zero sum is +0.0
        got = _exact_sum([np.array(weights)], np)
        assert got.hex() == want.hex() == math.fsum(weights).hex()

    @pytest.mark.parametrize("size", [2**16 + 1, 3 * 2**16])
    def test_buckets_join_across_slices(self, size):
        # 1.0 in the first slice, then 2^-53 in every later place: adding
        # them in order rounds each 2^-53 away, the exact sum keeps them all
        ties = np.full(size, 2.0**-53)
        ties[0] = 1.0
        assert _exact_sum(_slices(ties), np) == 1.0 + (size - 1) * 2.0**-53 == math.fsum(ties.tolist())
        assert float(np.cumsum(ties)[-1]) == 1.0
        # wide exponents and the largest mantissas, in every slice
        rng = np.random.default_rng(size)
        w = rng.random(size) ** rng.integers(1, 400, size)
        w[::7] = 1.0 - 2.0**-53
        w[::11] = 5e-324
        assert _exact_sum(_slices(w), np).hex() == math.fsum(w.tolist()).hex()

    def test_low_half_all_ones(self):
        # the low 26 significand bits all set: hi drops all of them and lo
        # keeps all of them, in each bucket
        x = 1.0 + (2**26 - 1) * 2.0**-52
        weights = [x, x * 2.0**-30, x * 2.0**-1030, x, 2.0**-53, 0.5 * x]
        assert x.hex() == "0x1.0000003ffffffp+0"
        got = _exact_sum([np.array(weights)], np)
        assert got.hex() == math.fsum(weights).hex()

    def test_subnormals_below_the_hi_grid(self):
        # below 2^-1048 a subnormal has only its low 26 significand bits, so
        # hi is 0 and lo is the whole weight; 1e-310 lies above that grid
        weights = [2.0**-1050, 3 * 5e-324, (2**20 + 1) * 5e-324, 2.0**-1048 - 5e-324, 1e-310]
        got = _exact_sum([np.array(weights)], np)
        assert got.hex() == math.fsum(weights).hex()
        assert _exact_sum([np.array(weights[:4])], np).hex() == math.fsum(weights[:4]).hex()

    def test_negative_zero_in_a_long_array(self):
        # -0.0 has the sign bit set, so its bucket is 2048; it adds nothing
        w = np.random.default_rng(3).random(2**16 + 1) ** 3
        w[[0, 4097, 2**16]] = -0.0
        want = math.fsum(w.tolist())
        assert _exact_sum([w], np).hex() == _exact_sum(_slices(w), np).hex() == want.hex()
        assert _exact_sum([np.full(2**16 + 1, -0.0)], np).hex() == (0.0).hex()

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=2.0**1000),
                st.floats(min_value=0.0, max_value=2.0**-1000),
                st.sampled_from([-0.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 1.0]),
            ),
            max_size=60,
        )
    )
    def test_matches_fsum_on_nonnegative_floats(self, weights):
        got = _exact_sum([np.array(weights, dtype=float)], np)
        assert got.hex() == math.fsum(weights).hex()


def _z_scores(seq, k, trials, seeds):
    """(wins - trials * V) / sqrt(trials * V * (1 - V)) for each seed, V
    the exact value of the threshold-k rule."""
    v = threshold_rule_value(seq, k)
    sd = math.sqrt(trials * v * (1.0 - v))
    return np.array([(monte_carlo(seq, k, trials, seed).wins - trials * v) / sd for seed in seeds])


def _assert_standard_normal(z):
    # R independent N(0, 1) scores: the mean has standard deviation
    # 1/sqrt(R), the sample standard deviation about 1/sqrt(2(R - 1));
    # each within 4 of those
    r = z.size
    assert abs(z.mean()) <= 4.0 / math.sqrt(r)
    assert abs(z.std(ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * (r - 1))


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        seq = validate_probabilities([0, 0, 0.5, 0, 0])
        a = monte_carlo(seq, 3, 50_000, seed=42)
        b = monte_carlo(seq, 3, 50_000, seed=42)
        assert a == b

    def test_seed_changes_stream(self):
        seq = validate_probabilities([0.5, 0.5])
        a = monte_carlo(seq, 1, 50_000, seed=1)
        b = monte_carlo(seq, 1, 50_000, seed=2)
        assert a.wins != b.wins

    def test_crosses_chunk_boundaries(self):
        seq = validate_probabilities([0.5, 0.5])
        trials = (1 << 16) + 123
        rep = monte_carlo(seq, 1, trials, seed=9)
        assert rep.trials == trials
        assert 0 <= rep.wins <= trials
        assert rep == monte_carlo(seq, 1, trials, seed=9)

    def test_estimate_within_four_se(self):
        seq = validate_probabilities([0, 0, 0.5, 0, 0])
        rep = monte_carlo(seq, 3, 200_000, seed=42)
        assert abs(rep.estimate - 0.5) <= 4.0 * rep.std_error
        assert rep.std_error == pytest.approx(
            math.sqrt(rep.estimate * (1 - rep.estimate) / rep.trials), abs=1e-18
        )

    def test_impossible_win_counts_zero(self):
        seq = validate_probabilities([0.0, 0.0, 0.0])
        rep = monte_carlo(seq, 1, 10_000, seed=5)
        assert rep.wins == 0
        assert rep.estimate == 0.0
        assert rep.std_error == 0.0

    @pytest.mark.parametrize("width", [255, 256, 257, 513])
    def test_sure_successes_never_win(self, width):
        # with p = 1 throughout, every trial has width successes, never one;
        # the widths straddle 256 and 512, where a byte-wide count would wrap
        rep = monte_carlo(validate_probabilities([1.0] * width), 1, 100, seed=3)
        assert rep.wins == 0

    def test_sure_success_sampling(self):
        # lone p = 1 at the threshold: the rule always stops there and
        # wins unless a later trial succeeds
        seq = validate_probabilities([1.0, 0.25])
        rep = monte_carlo(seq, 1, 100_000, seed=11)
        assert abs(rep.estimate - 0.75) <= 4.0 * rep.std_error

    def test_rejects_bad_trials(self):
        seq = validate_probabilities([0.5])
        with pytest.raises(ValueError):
            monte_carlo(seq, 1, 0, seed=1)

    def test_trials_no_int64_holds_are_too_large(self):
        seq = validate_probabilities([0.5])
        for trials in (sys.maxsize, 2**64):
            with pytest.raises(TooLarge, match="trials"):
                monte_carlo(seq, 1, trials, seed=1)

    def test_huge_trials_finish_within_four_se(self):
        seq = validate_probabilities([0.1, 0.3, 0.2, 0.25, 0.4])
        rep = monte_carlo(seq, 1, 2**62, seed=42)
        v = threshold_rule_value(seq, 1)
        assert abs(rep.estimate - v) <= 4.0 * math.sqrt(v * (1.0 - v) / rep.trials)

    def test_bad_trials_raise_package_error(self):
        seq = validate_probabilities([0.5])
        for trials in (0, -3):
            with pytest.raises(InvalidArgument):
                monte_carlo(seq, 1, trials, seed=1)

    @non_integer_k
    def test_non_integer_k_is_invalid(self, k):
        seq = validate_probabilities([0.5, 0.5, 0.5])
        with pytest.raises(InvalidArgument, match="k must be an integer"):
            monte_carlo(seq, k, 10, seed=1)

    @pytest.mark.parametrize("trials", [10.0, "10", None], ids=["10.0", "str", "None"])
    def test_non_integer_trials_is_invalid(self, trials):
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(InvalidArgument, match="trials must be an integer"):
            monte_carlo(seq, 1, trials, seed=1)

    @pytest.mark.parametrize("seed", [2.7, "42", None], ids=["2.7", "str", "None"])
    def test_non_integer_seed_is_invalid(self, seed):
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(InvalidArgument, match="seed must be an integer"):
            monte_carlo(seq, 1, 10, seed=seed)

    def test_negative_seed_normalized(self):
        seq = validate_probabilities([0.5, 0.5])
        rep = monte_carlo(seq, 1, 1000, seed=-7)
        assert rep.seed == -7
        assert rep == monte_carlo(seq, 1, 1000, seed=-7)

    def test_only_the_window_is_drawn(self):
        w = [0.2, 0.05, 0.5, 0.3]
        for seed in (0, 3, -1):
            behind_prefix = monte_carlo(validate_probabilities([0.3, 0.9] + w), 3, 20_000, seed)
            assert behind_prefix == monte_carlo(validate_probabilities(w), 1, 20_000, seed)

    def test_memory_bounded_by_trials(self):
        seq = secretary_sequence(1000)
        s = threshold(seq).s
        trials = 1_000
        assert traced_peak(monte_carlo, seq, s, trials, 42) < 64 * trials * (seq.n - s + 1)

    def test_memory_bounded_by_chunk(self):
        seq = secretary_sequence(10_000)
        s = threshold(seq).s
        assert traced_peak(monte_carlo, seq, s, 2_000, 42) < 16 * (1 << 16)

    def test_memory_bounded_whatever_the_trials(self):
        # 10^7 trials: no scratch array grows with trials
        seq = validate_probabilities([0.1, 0.3, 0.2, 0.25, 0.4])
        assert traced_peak(monte_carlo, seq, 1, 10_000_000, 42) <= 2 * 2**20

    @pytest.mark.parametrize(
        "probs, trials",
        [(secretary_sequence(250_000).p, 100_000), ([0.1, 0.3, 0.2, 0.25, 0.4], 10_000_000)],
        ids=["wide_window", "many_trials"],
    )
    def test_scratch_memory_is_constant(self, probs, trials):
        # two counts and the generator: no array grows with trials or n
        seq = validate_probabilities(probs)
        s = threshold(seq).s
        assert traced_peak(monte_carlo, seq, s, trials, 42) <= 64 * 2**10

    @pytest.mark.parametrize(
        "probs, every_trial_wins",
        [
            ([5e-324], False),
            ([1e-300], False),
            ([1 - 2**-53], True),
            ([5e-324, 0.0, 1.0, 1e-300], True),
            ([1e-300, 1 - 2**-53, 0.0, 5e-324], True),
            ([0.0, 1 - 2**-53, 5e-324, 1.0], False),
        ],
    )
    def test_edge_columns(self, probs, every_trial_wins):
        # subnormal p, and p one ulp below 1, which numpy's binomial draws
        # through 1 - p = 2^-53: no floating-point exception may be raised
        trials = (1 << 17) + 5
        with np.errstate(all="raise"):
            rep = monte_carlo(validate_probabilities(probs), 1, trials, seed=8)
        assert rep.wins == (trials if every_trial_wins else 0)

    def test_saturating_count_does_not_wrap(self):
        # about 300 successes per trial: not one of 10^5 trials has exactly
        # one, the 257 that a count kept modulo 256 would misread included
        rep = monte_carlo(validate_probabilities([0.5] * 600), 1, 100_000, seed=4)
        assert rep.wins == 0

    @pytest.mark.parametrize(
        "probs",
        [
            ORACLE_FAMILIES_20["near_tie_a"],
            [0.2, 0.3, 1.0, 0.1, 0.25],
            [2e-5] * 50_000,
            secretary_sequence(10_000).p,
        ],
        ids=["near_tie", "sure_at_threshold", "tiny_p", "long_window"],
    )
    def test_win_counts_are_binomial(self, probs):
        seq = validate_probabilities(probs)
        z = _z_scores(seq, threshold(seq).s, 10_000, range(40))
        _assert_standard_normal(z)


class TestCrossCheck:
    def test_record_holds_each_oracle_value(self):
        seq = secretary_sequence(20)
        c = cross_check(seq, 20_000, 42)
        s = threshold(seq).s
        assert c.s == s == 8
        assert c.values == {
            "formula": win_probability(seq, threshold(seq)).value,
            "dp": dp_optimal_value(seq).value,
            "threshold_family_max": max(threshold_rule_values(seq)),
            "exhaustive": exhaustive_value(seq, s),
            "monte_carlo": c.simulation.estimate,
        }
        assert c.simulation == monte_carlo(seq, s, 20_000, 42)
        assert c.checks == {
            "dp": True, "threshold_family": True, "exhaustive": True, "monte_carlo": True
        }
        assert c.agree is True

    def test_exhaustive_skipped_above_the_cap(self):
        c = cross_check(validate_probabilities([0.2] * 25), 1_000, 42)
        assert c.values["exhaustive"] is None
        assert list(c.checks) == ["dp", "threshold_family", "monte_carlo"]
        assert c.agree is True

    def test_an_oracle_off_by_1e_9_disagrees(self, dp_off_by_1e_9):
        c = cross_check(secretary_sequence(20), 20_000, 42)
        assert c.checks == {
            "dp": False, "threshold_family": True, "exhaustive": True, "monte_carlo": True
        }
        assert c.agree is False
