import math
import tracemalloc

import numpy as np
import pytest

from exact_oracle import exact_window_win, full_enumeration_value
from oddsrule import (
    IndexOutOfRange,
    InvalidArgument,
    TooLarge,
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
from oddsrule import oracle
from oddsrule.oracle import MC_CHUNK


# the oracle-check families at n = 20, and a sequence whose threshold is n
ORACLE_FAMILIES_20 = {
    "uniform": np.random.default_rng(20).random(20).tolist(),
    "secretary": [1 / j for j in range(1, 21)],
    "small_p": np.random.default_rng(21).beta(1.0, 10.0, 20).tolist(),
    "near_tie_a": [0.5] + [1 / 20] * 19,
    "near_tie_b": [0.0, 0.3] + [1 / 19] * 18,
    "s_equals_n": [j / 40 for j in range(1, 20)] + [0.75],
}


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
        tracemalloc.start()
        try:
            exhaustive_value(seq, threshold(seq).s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("family", list(ORACLE_FAMILIES_20))
    def test_bits_match_full_enumeration_at_the_size_cap(self, family):
        seq = validate_probabilities(ORACLE_FAMILIES_20[family])
        for k in sorted({1, threshold(seq).s, seq.n}):
            assert exhaustive_value(seq, k).hex() == full_enumeration_value(seq, k).hex()

    def test_memory_worst_case_window(self):
        # k = n = 20: all 2^19 prefixes, each with its one window success
        seq = validate_probabilities(ORACLE_FAMILIES_20["s_equals_n"])
        assert threshold(seq).s == 20
        tracemalloc.start()
        try:
            exhaustive_value(seq, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_widest_window(self):
        # k = 1: no prefix, and one outcome per place of the one success
        seq = secretary_sequence(20)
        tracemalloc.start()
        try:
            exhaustive_value(seq, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_size_cap(self):
        seq = validate_probabilities([0.5] * 21)
        with pytest.raises(TooLarge):
            exhaustive_value(seq, 1)

    def test_index_checked(self):
        seq = validate_probabilities([0.5])
        with pytest.raises(IndexOutOfRange):
            exhaustive_value(seq, 2)


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
        trials = MC_CHUNK + 123
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
        # with p = 1 throughout, every row of the window has width hits,
        # never one; a hit count kept modulo 256 would read 1 at 257 and 513
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

    def test_bad_trials_raise_package_error(self):
        seq = validate_probabilities([0.5])
        for trials in (0, -3):
            with pytest.raises(InvalidArgument):
                monte_carlo(seq, 1, trials, seed=1)

    def test_negative_seed_normalized(self):
        seq = validate_probabilities([0.5, 0.5])
        rep = monte_carlo(seq, 1, 1000, seed=-7)
        assert rep.seed == -7
        assert rep == monte_carlo(seq, 1, 1000, seed=-7)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 30])
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, chunk):
        # at the default chunk size, 70 000 trials of width 5 take two blocks
        seq = validate_probabilities([0.1, 0.3, 0.2, 0.25, 0.4])
        want = monte_carlo(seq, 1, 70_000, seed=13)
        monkeypatch.setattr(oracle, "MC_CHUNK", chunk)
        assert monte_carlo(seq, 1, 70_000, seed=13) == want

    def test_only_the_window_is_drawn(self):
        w = [0.2, 0.05, 0.5, 0.3]
        for seed in (0, 3, -1):
            behind_prefix = monte_carlo(validate_probabilities([0.3, 0.9] + w), 3, 20_000, seed)
            assert behind_prefix == monte_carlo(validate_probabilities(w), 1, 20_000, seed)

    def test_memory_bounded_by_trials(self, monkeypatch):
        # a block of MC_CHUNK = 2^30 uniforms would take 8 GiB; the buffers
        # hold no more rows than there are trials
        monkeypatch.setattr(oracle, "MC_CHUNK", 1 << 30)
        seq = secretary_sequence(1000)
        s = threshold(seq).s
        trials = 1_000
        tracemalloc.start()
        try:
            monte_carlo(seq, s, trials, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * trials * (seq.n - s + 1)

    def test_memory_bounded_by_chunk(self):
        seq = secretary_sequence(10_000)
        s = threshold(seq).s
        tracemalloc.start()
        try:
            monte_carlo(seq, s, 2_000, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * MC_CHUNK
