"""Acceptance suite: one test per criterion, one PASS line per test.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are recomputed independently inside each test
(direct ** powers, exact rational arithmetic) rather than taken from the
library's own evaluation paths.
"""

import math
import time

import numpy as np

from exact_oracle import (
    equal_odds_sequence,
    exact_win,
    exact_window_win,
    log_product_gap,
    prior_bounds,
)
from oddsrule import (
    dp_optimal_value,
    exhaustive_value,
    lindley_threshold,
    lower_bound,
    lower_extremal_case1,
    lower_extremal_case2,
    lower_near_extremal_case3,
    monte_carlo,
    secretary_sequence,
    threshold,
    threshold_rule_value,
    threshold_rule_values,
    upper_bound,
    upper_extremal,
    validate_probabilities,
    win_probability,
)

TOL = 1e-12


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS  ({detail})", flush=True)


def _win(seq):
    return win_probability(seq, threshold(seq)).value


def test_criterion_01_formula_equivalence(corpus):
    start = time.perf_counter()
    worst = 0.0
    for seq in corpus:
        t = threshold(seq)
        w = win_probability(seq, t)
        a = float(exact_window_win(seq.p, t.s))
        b = w.value
        c = w.product_form
        worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
        assert abs(a - b) <= TOL
        assert abs(a - c) <= TOL
        assert abs(b - c) <= TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"worst spread {worst:.2e} over 10^4 sequences, {elapsed:.2f}s")


def test_criterion_02_optimality(corpus):
    worst = 0.0
    for seq in corpus:
        t = threshold(seq)
        v = win_probability(seq, t).value
        dp = dp_optimal_value(seq).value
        worst = max(worst, abs(dp - v))
        assert abs(dp - v) <= TOL
        family = threshold_rule_values(seq)
        best = max(family)
        assert abs(best - v) <= TOL
        assert family[t.s - 1] >= best - TOL
    _report(2, f"dp == formula within {worst:.2e}; family max attained at s")


def test_criterion_03_upper_bound(corpus):
    for seq in corpus:
        t = threshold(seq)
        assert win_probability(seq, t).value <= upper_bound(t.R_s) + TOL

    rng = np.random.default_rng(333)
    perturbations = 0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        s = int(rng.integers(1, n + 1))
        R_s = rng.uniform(1.0, 5.0) if s > 1 else rng.uniform(0.1, 5.0)
        cfg = upper_extremal(n, s, R_s)
        t = threshold(cfg.seq)
        v = win_probability(cfg.seq, t).value
        assert abs(v - upper_bound(t.R_s)) <= 1e-15
        # Perturbing a tail coordinate of the window loses the equality
        # strictly.  (Perturbing the head or the prefix only moves to
        # another member of the attaining family, so those coordinates
        # carry no uniqueness information.)
        for j in range(s + 1, n + 1):
            p = list(cfg.seq.p)
            p[j - 1] += 1e-3
            seq2 = validate_probabilities(p)
            t2 = threshold(seq2)
            if t2.s != s:
                continue
            perturbations += 1
            assert win_probability(seq2, t2).value < upper_bound(t2.R_s)
    assert perturbations >= 100
    _report(3, f"equality at 1e-15 on 100 configs; {perturbations} strict perturbations")


def test_criterion_04_lower_case1(corpus):
    rng = np.random.default_rng(444)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        R_1 = rng.uniform(0.02, 0.98)
        cfg = lower_extremal_case1(n, R_1)
        want = R_1 * (1.0 + R_1 / n) ** (-n)
        assert abs(_win(cfg.seq) - want) <= TOL

    checked = 0
    for seq in corpus:
        t = threshold(seq)
        if t.R_s >= 1.0:
            continue
        checked += 1
        low = lower_bound(seq.n, t.s, t.R_s)
        assert low.case == 1
        assert win_probability(seq, t).value >= low.value - TOL
    assert checked >= 50
    _report(4, f"100 configs at equality; {checked} random sub-unit sequences bounded")


def test_criterion_05_lower_case2(corpus):
    rng = np.random.default_rng(555)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        s = int(rng.integers(1, n + 1))
        cfg = lower_extremal_case2(n, s)
        m = n - s + 1
        want = (1.0 + 1.0 / m) ** (-m)
        assert abs(_win(cfg.seq) - want) <= TOL

    checked = 0
    for seq in corpus:
        t = threshold(seq)
        if t.R_s < 1.0 or math.isinf(t.R_s):
            continue
        low = lower_bound(seq.n, t.s, t.R_s)
        if low.case != 2:
            continue
        checked += 1
        assert win_probability(seq, t).value >= low.value - TOL
    assert checked >= 100
    _report(5, f"100 configs at equality; {checked} random case-2 sequences bounded")


def test_criterion_06_lower_case3_family():
    rng = np.random.default_rng(666)
    for _ in range(20):
        n = int(rng.integers(2, 41))
        s = int(rng.integers(1, n))
        m = n - s
        target = (1.0 + 1.0 / m) ** (-m)
        gaps = []
        for alpha in (0.9, 0.99, 0.999, 0.9999):
            cfg = lower_near_extremal_case3(n, s, alpha)
            # both are few-ulp evaluations of the same closed form
            assert abs(cfg.target_bound - target) <= 1e-13
            v = _win(cfg.seq)
            assert v > target
            gaps.append(v - target)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
    _report(6, "gap decreases along alpha = 0.9 .. 0.9999 and ends below 1e-3")


def _unit_sum_sequence(rng):
    """Random sequence whose suffix odds sum at the threshold is exactly
    1.0 in double precision (nudges the window head by ulps; resamples
    when the rounding grid steps over 1.0)."""
    while True:
        n = int(rng.integers(2, 41))
        s = int(rng.integers(1, n))
        m = n - s
        w = rng.uniform(0.05, 1.0, size=m)
        tail_odds = w * (rng.uniform(0.2, 0.8) / w.sum())
        p_tail = [r / (1.0 + r) for r in tail_odds]
        need = 1.0 - math.fsum(p / (1.0 - p) for p in p_tail)
        if need <= 0.0:
            continue
        probs = [0.0] * (s - 1) + [need / (1.0 + need)] + p_tail
        for _ in range(64):
            seq = validate_probabilities(probs)
            R_s = seq.R[s - 1]
            if R_s == 1.0:
                return seq, s
            probs[s - 1] = math.nextafter(probs[s - 1], 1.0 if R_s < 1.0 else 0.0)


def test_criterion_07_unit_sum_sandwich():
    rng = np.random.default_rng(777)
    inv_e = math.exp(-1.0)
    for _ in range(100):
        seq, s = _unit_sum_sequence(rng)
        n = seq.n
        t = threshold(seq)
        assert t.s == s
        assert t.R_s == 1.0
        v = win_probability(seq, t).value
        pow_n = (1.0 + 1.0 / n) ** (-n)
        m = n - s + 1
        pow_m = (1.0 + 1.0 / m) ** (-m)
        assert inv_e < pow_n
        assert pow_n <= pow_m
        assert pow_m <= v + TOL
        assert v <= 0.5 + TOL
    _report(7, "1/e < (1+1/n)^-n <= corollary <= V_n <= 1/2 on 100 unit-sum sequences")


def test_criterion_08_prior_bounds(corpus):
    checked = 0
    for seq in corpus:
        prior = prior_bounds(seq)
        if not prior.e_applicable:
            continue
        checked += 1
        v = _win(seq)
        assert v > prior.e_value
        assert v >= prior.ai_value - TOL
    assert checked >= 5000

    for n in range(1, 101):
        seq = validate_probabilities([1.0 / (n + 1)] * n)
        want = (1.0 - 1.0 / (n + 1)) ** n
        assert abs(_win(seq) - want) <= TOL
    _report(8, f"{checked} sequences above 1/e and the sum-free sharp bound; "
               "constant configs attain it for n = 1..100")


def test_criterion_09_secretary_cross_check():
    for n in range(2, 501):
        assert threshold(secretary_sequence(n)).s == lindley_threshold(n)
    seq = secretary_sequence(10)
    t = threshold(seq)
    assert t.s == 4
    v = win_probability(seq, t).value
    assert abs(dp_optimal_value(seq).value - v) <= TOL
    assert abs(v - float(exact_win(list(seq.p)))) <= TOL
    _report(9, f"thresholds agree for n = 2..500; V_10 = {v:.5f} confirmed by dp "
               "and exact rational arithmetic")


def test_criterion_10_oracle_triangle():
    start = time.perf_counter()
    rng = np.random.default_rng(101010)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        p = rng.uniform(0.0, 1.0, size=n)
        p[rng.random(n) < 0.1] = 1.0
        seq = validate_probabilities(p.tolist())
        k = int(rng.integers(1, n + 1))
        assert abs(exhaustive_value(seq, k) - threshold_rule_value(seq, k)) <= TOL

    hits = 0
    for run in range(100):
        n = int(rng.integers(3, 9))
        seq = validate_probabilities(rng.uniform(0.05, 0.9, size=n).tolist())
        t = threshold(seq)
        exact = threshold_rule_value(seq, t.s)
        rep = monte_carlo(seq, t.s, 1_000_000, seed=9000 + run)
        if abs(rep.estimate - exact) <= 4.0 * rep.std_error:
            hits += 1
    assert hits >= 95
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, f"10^3 exhaustive agreements; {hits}/100 Monte Carlo runs in "
                f"4 SE; {elapsed:.1f}s")


def test_criterion_11_product_log_gap():
    rng = np.random.default_rng(111111)
    for _ in range(10_000):
        k = int(rng.integers(1, 21))
        xs = rng.uniform(0.0, 10.0, size=k).tolist()
        gap = log_product_gap(xs)
        assert gap >= 0.0
    for k in (1, 2, 5, 20):
        for mag in (1e-9, 0.5, 3.0, 10.0):
            xs = [0.0] * k
            xs[k // 2] = mag
            assert log_product_gap(xs) <= TOL
    _report(11, "gap nonnegative on 10^4 random vectors, zero on one-hot vectors")


def test_criterion_12_equal_odds_contradiction():
    rng = np.random.default_rng(121212)
    for _ in range(100):
        n = int(rng.integers(2, 41))
        s = int(rng.integers(1, n))
        R_s = (1.0 + 1.0 / (n - s)) * rng.uniform(1.01, 3.0)
        seq = equal_odds_sequence(n, s, R_s)
        assert seq.R[s] > 1.0  # the tail alone already reaches 1
        assert threshold(seq).s > s
    _report(12, "equal-odds profiles above the separator contradict threshold = s")
