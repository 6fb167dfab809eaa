"""Property-based checks of the documented invariants."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from exact_oracle import (
    exact_suffix_sums,
    exact_threshold,
    exact_window_win,
    full_enumeration_value,
)
from oddsrule import (
    bound_report,
    dp_optimal_value,
    exhaustive_value,
    log_product_gap,
    lower_bound,
    lower_extremal_case2,
    lower_near_extremal_case3,
    odds_to_prob,
    threshold,
    threshold_rule_value,
    threshold_rule_values,
    upper_bound,
    upper_extremal,
    validate_probabilities,
    win_probability,
)
from oddsrule import core
from oddsrule.core import BOUNDARY_EPS, GRID_MIN_LEN

probabilities = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)
prob_lists = st.lists(probabilities, min_size=1, max_size=30)

# may contain sure successes
wide_probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.just(1.0)
)
wide_prob_lists = st.lists(wide_probabilities, min_size=1, max_size=30)

# the inputs the exact grid of core._grid_suffix_sums takes: at least
# GRID_MIN_LEN entries, no subnormal, exponents within about 2**40 of one
# another, with zeros, -0.0 and sure successes mixed in
grid_prob_lists = st.builds(
    lambda scale, xs: [x if x in (0.0, 1.0) else math.ldexp(x, scale) for x in xs],
    st.integers(min_value=-980, max_value=0),
    st.lists(
        st.one_of(
            st.floats(min_value=2.0**-40, max_value=1.0, exclude_max=True),
            st.sampled_from([0.0, -0.0, 1.0]),
        ),
        min_size=GRID_MIN_LEN,
        max_size=60,
    ),
)

# (probs, summed on the grid) on both sides of each routing condition:
# the length cutoff, e_min = -1021 (smallest normal) against -1022, and
# e_max - e_min + L.bit_length() at 970 against 971 (here L = 12)
ROUTING_EDGES = [
    ([1 / (j + 2) for j in range(GRID_MIN_LEN - 1)], False),
    ([1 / (j + 2) for j in range(GRID_MIN_LEN)], True),
    ([2.0**-1022] + [2.0**-990 * (1 + j / 7) for j in range(GRID_MIN_LEN)], True),
    ([2.0**-1023] + [2.0**-990 * (1 + j / 7) for j in range(GRID_MIN_LEN)], False),
    ([2.0**-966] + [0.6 - j / 100 for j in range(11)], True),
    ([2.0**-967] + [0.6 - j / 100 for j in range(11)], False),
]


@given(wide_prob_lists)
def test_suffix_sums_monotone_and_recursive(probs):
    seq = validate_probabilities(probs)
    n = seq.n
    assert len(seq.p) == len(seq.r) == len(seq.R) == n
    for l in range(n - 1):
        assert seq.R[l] >= seq.R[l + 1]
    assert seq.R[n - 1] == seq.r[n - 1]
    for l in range(n - 1):
        if math.isinf(seq.R[l]):
            assert math.isinf(seq.r[l]) or math.isinf(seq.R[l + 1])
        else:
            expect = seq.r[l] + seq.R[l + 1]
            assert abs(seq.R[l] - expect) <= 4 * math.ulp(max(1.0, expect))


@settings(max_examples=200)
@given(st.one_of(wide_prob_lists, grid_prob_lists))
@example(ROUTING_EDGES[0][0])
@example(ROUTING_EDGES[1][0])
@example(ROUTING_EDGES[2][0])
@example(ROUTING_EDGES[3][0])
@example(ROUTING_EDGES[4][0])
@example(ROUTING_EDGES[5][0])
# -0.0 and p = 1 as the first, a middle and the last entry of grid-length
# inputs, and a tail of zeros after a sure success
@example([-0.0, 0.25] * GRID_MIN_LEN + [-0.0])
@example([1.0] + [1 / (j + 3) for j in range(GRID_MIN_LEN)])
@example([1 / (j + 3) for j in range(GRID_MIN_LEN)] + [1.0] + [0.1, 1e-9, 1 - 2**-53] * 4)
@example([1 / (j + 3) for j in range(GRID_MIN_LEN)] + [1.0])
@example([0.4, 1.0] + [0.0, -0.0] * GRID_MIN_LEN)
# both near-tie families [0.5] + [1/(m+2)]*(m+1) and [0, 0.3] + [1/(m+1)]*m
@example([0.5] + [1 / 7] * 6)
@example([0.5] + [1 / 1001] * 1000)
@example([0.0, 0.3] + [1 / 8] * 7)
@example([0.0, 0.3] + [1 / 1000] * 999)
@example([-0.0, 0.0, -0.0])
@example([5e-324, 0.3, 2.2250738585072014e-308, 1e-310])
@example([1 - 2**-53, 1e-300, 1 - 2**-53, 0.5])
@example([0.9, 1.0, 1 - 2**-53, 5e-324])
@example([2.0**-k for k in range(0, 1075, 13)])
def test_suffix_sums_correctly_rounded(probs):
    seq = validate_probabilities(probs)
    exact = Fraction(0)
    sure = False
    for l in range(seq.n - 1, -1, -1):
        sure = sure or math.isinf(seq.r[l])
        if sure:
            assert math.isinf(seq.R[l])
        else:
            # float(sum(map(Fraction, seq.r[l:]))), accumulated suffix-wise
            exact += Fraction(seq.r[l])
            assert seq.R[l].hex() == float(exact).hex()


@pytest.mark.parametrize("probs, grid", ROUTING_EDGES)
def test_suffix_sums_routing(probs, grid, monkeypatch):
    taken = []

    def spy(odds, stop):
        sums = real(odds, stop)
        taken.append(sums is not None)
        return sums

    real = core._grid_suffix_sums
    monkeypatch.setattr(core, "_grid_suffix_sums", spy)
    seq = validate_probabilities(probs)
    assert any(taken) == grid
    assert [x.hex() for x in seq.R] == [x.hex() for x in exact_suffix_sums(seq.r)]


def test_large_near_tie_suffix_sums_correctly_rounded(large_near_tie):
    seq, _, _ = large_near_tie
    assert [x.hex() for x in seq.R] == [x.hex() for x in exact_suffix_sums(seq.r)]


@given(wide_prob_lists)
def test_odds_round_trip(probs):
    seq = validate_probabilities(probs)
    for p, r in zip(seq.p, seq.r):
        assert (r == 0.0) == (p == 0.0)
        if math.isfinite(r):
            assert abs(odds_to_prob(r) - p) <= 1e-15
        else:
            assert p == 1.0


@given(wide_prob_lists)
def test_threshold_defining_inequalities(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    assert 1 <= t.s <= seq.n
    assert t.R_s == seq.R[t.s - 1]
    if t.s > 1:
        assert t.R_s >= 1.0
    if t.s < seq.n:
        assert seq.R[t.s] < 1.0
    if seq.R[0] < 1.0:
        assert t.s == 1
    assert t.s == exact_threshold(probs)


def scan_threshold(seq):
    """(s, R_s, boundary_flag) by a full scan of R, the reference for the
    bisection in threshold()."""
    s = 1
    for l in range(seq.n, 0, -1):
        if seq.R[l - 1] >= 1.0:
            s = l
            break
    boundary = any(math.isfinite(x) and abs(x - 1.0) < BOUNDARY_EPS for x in seq.R)
    return s, seq.R[s - 1], boundary


# any head, then an equal window whose odds sum to within rounding of 1
near_ties = st.builds(
    lambda head, m, extra: head + [1 / (m + 1)] * (m + extra),
    st.lists(wide_probabilities, max_size=5),
    st.integers(min_value=1, max_value=400),
    st.sampled_from([0, 1]),
)


@given(st.one_of(wide_prob_lists, near_ties))
@example([1.0])
@example([0.3, 1.0, 0.2, 1.0, 0.1])
@example([0.0, 0.0, 0.0])
@example([0.5, 0.5])
@example([0.5, 0.49999999997])  # only R_{s+1} is within 1e-9 of 1
@example([0.0, 0.3] + [1 / 9] * 8)
@example([0.5] + [1 / 7] * 6)
@example([5e-324, 1 - 2**-53, 2.2250738585072014e-308])
def test_threshold_matches_linear_scan(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    assert (t.s, t.R_s, t.boundary_flag) == scan_threshold(seq)


def test_threshold_matches_linear_scan_on_near_tie_families():
    for m in range(1, 400):
        for probs in ([0.0, 0.3] + [1 / (m + 1)] * m, [0.5] + [1 / (m + 2)] * (m + 1)):
            seq = validate_probabilities(probs)
            t = threshold(seq)
            assert (t.s, t.R_s, t.boundary_flag) == scan_threshold(seq), probs


@given(prob_lists)
def test_three_value_forms_agree(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    w = win_probability(seq, t)
    a = float(exact_window_win(probs, t.s))
    b = w.value
    c = w.product_form
    assert abs(a - b) <= 1e-12
    assert abs(a - c) <= 1e-12
    assert abs(b - c) <= 1e-12


@given(wide_prob_lists)
def test_value_matches_exact_rational(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    w = win_probability(seq, t)
    assert 0.0 <= w.value <= 1.0
    assert abs(w.value - float(exact_window_win(probs, t.s))) <= 1e-12
    if w.product_form is not None:
        assert abs(w.value - w.product_form) <= 1e-12


@given(wide_prob_lists)
def test_appending_sure_failure_is_a_noop(probs):
    seq = validate_probabilities(probs)
    ext = validate_probabilities(list(probs) + [0.0])
    t, t2 = threshold(seq), threshold(ext)
    assert t.s == t2.s
    assert win_probability(seq, t).value == win_probability(ext, t2).value


@given(wide_prob_lists, st.randoms(use_true_random=False))
def test_prefix_shuffle_leaves_value_alone(probs, rnd):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    prefix = list(probs[: t.s - 1])
    rnd.shuffle(prefix)
    shuffled = validate_probabilities(prefix + list(probs[t.s - 1 :]))
    t2 = threshold(shuffled)
    assert t2.s == t.s
    assert win_probability(shuffled, t2).value == win_probability(seq, t).value


@given(wide_prob_lists)
def test_dp_agrees_with_formula(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    v = win_probability(seq, t).value
    res = dp_optimal_value(seq)
    assert abs(res.value - v) <= 1e-12
    if not t.boundary_flag:
        assert min(res.stop_set) == t.s


@given(wide_prob_lists)
def test_threshold_family_peaks_at_s(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    v = win_probability(seq, t).value
    sweep = threshold_rule_values(seq)
    assert abs(max(sweep) - v) <= 1e-12
    assert sweep[t.s - 1] >= max(sweep) - 1e-12


@settings(max_examples=40)
@given(st.lists(wide_probabilities, min_size=1, max_size=10), st.data())
def test_exhaustive_matches_rule_value(probs, data):
    seq = validate_probabilities(probs)
    k = data.draw(st.integers(min_value=1, max_value=seq.n))
    assert abs(exhaustive_value(seq, k) - threshold_rule_value(seq, k)) <= 1e-12


# (probs, k) with n <= 12 and signed zeros and sure successes mixed in
enumerable_rules = st.lists(
    st.one_of(wide_probabilities, st.sampled_from([0.0, -0.0, 1.0])),
    min_size=1,
    max_size=12,
).flatmap(lambda probs: st.tuples(st.just(probs), st.integers(1, len(probs))))


@given(enumerable_rules)
@example(([0.3, 0.6, 0.1, 0.45], 1))
@example(([0.3, 0.6, 0.1, 0.45], 4))
@example(([0.4], 1))
@example(([-0.0, 1.0, 0.5, 0.0, 1.0], 2))
def test_exhaustive_bits_match_full_enumeration(rule):
    probs, k = rule
    seq = validate_probabilities(probs)
    assert exhaustive_value(seq, k).hex() == full_enumeration_value(seq, k).hex()


@given(prob_lists)
def test_bound_report_never_violates(probs):
    report = bound_report(validate_probabilities(probs))
    assert report.lower - 1e-12 <= report.v_n <= report.upper + 1e-12
    assert 0.0 <= report.lower and report.upper <= 1.0
    # lower <= upper can invert by an ulp only where both coincide with
    # v_n (single-entry windows attain both bounds at once)
    assert report.lower <= report.upper + 1e-12
    if report.lower > report.upper:
        assert abs(report.lower - report.v_n) <= 1e-12
        assert abs(report.upper - report.v_n) <= 1e-12
    if report.lower_case == 3:
        assert report.v_n > report.lower


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=25))
def test_log_product_gap_nonnegative(xs):
    gap = log_product_gap(xs)
    assert gap >= 0.0
    direct = math.fsum(math.log1p(x) for x in xs) - math.log1p(math.fsum(xs))
    assert abs(gap - direct) <= 1e-9 * (1.0 + abs(gap))


@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
        min_size=1,
        max_size=15,
    )
)
def test_log_product_gap_zero_iff_one_hot(xs):
    gap = log_product_gap(xs)
    nonzero = sum(1 for x in xs if x > 0.0)
    if nonzero <= 1:
        assert gap <= 1e-12
    else:
        assert gap > 1e-12


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_upper_extremal_round_trip(n, s, R_s):
    assume(s <= n)
    assume(s == 1 or R_s >= 1.0)
    cfg = upper_extremal(n, s, R_s)
    t = threshold(cfg.seq)
    assert t.s == s
    v = win_probability(cfg.seq, t).value
    assert abs(v - upper_bound(t)) <= 1e-15


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_case2_round_trip(n, s):
    assume(s <= n)
    cfg = lower_extremal_case2(n, s)
    t = threshold(cfg.seq)
    assert t.s == s
    assert lower_bound(n, s, t.R_s).case == 2
    assert abs(win_probability(cfg.seq, t).value - cfg.target_bound) <= 1e-12


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=39),
    st.floats(min_value=0.05, max_value=0.999),
)
def test_case3_round_trip(n, s, alpha):
    assume(s < n)
    cfg = lower_near_extremal_case3(n, s, alpha)
    t = threshold(cfg.seq)
    assert t.s == s
    assert lower_bound(n, s, t.R_s).case == 3
    assert win_probability(cfg.seq, t).value > cfg.target_bound
