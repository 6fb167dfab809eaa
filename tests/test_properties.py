"""Property-based checks of the documented invariants."""

import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from exact_oracle import (
    exact_bound_report,
    exact_suffix_sums,
    exact_threshold,
    exact_window_win,
    full_enumeration_value,
    log_product_gap,
    theorem_holds,
)
from oddsrule import (
    NotANumber,
    OddsRuleError,
    OutOfRange,
    bound_report,
    corollary_bound,
    dp_optimal_value,
    exhaustive_value,
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
from oddsrule.core import BOUNDARY_EPS, ODDS_CHUNK

probabilities = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)
prob_lists = st.lists(probabilities, min_size=1, max_size=30)

# may contain sure successes
wide_probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.just(1.0)
)
wide_prob_lists = st.lists(wide_probabilities, min_size=1, max_size=30)

# inputs inside the guard of core._suffix_sums, so that its C-level float
# passes scale and round: no subnormal, exponents within about 2**40 of one
# another, with zeros, -0.0 and sure successes mixed in
grid_prob_lists = st.builds(
    lambda scale, xs: [x if x in (0.0, 1.0) else math.ldexp(x, scale) for x in xs],
    st.integers(min_value=-980, max_value=0),
    st.lists(
        st.one_of(
            st.floats(min_value=2.0**-40, max_value=1.0, exclude_max=True),
            st.sampled_from([0.0, -0.0, 1.0]),
        ),
        min_size=1,
        max_size=60,
    ),
)

# inputs outside that guard, so that core._suffix_sums splits each odds with
# math.frexp and rounds by int division: a subnormal odds, or an odds at
# most 2**-972 next to one of at least 1/3, exponents spread past 970
frexp_prob_lists = st.tuples(
    st.one_of(
        st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
        st.floats(min_value=2.0**-1022, max_value=2.0**-972),
    ),
    st.floats(min_value=0.25, max_value=0.95),
    st.lists(st.one_of(probabilities, st.sampled_from([0.0, -0.0])), max_size=30),
).flatmap(lambda parts: st.permutations([parts[0], parts[1], *parts[2]]))

# (probs, inside the guard): any length, from one entry on, and both
# sides of each guard condition: e_min = -1021 (smallest normal) against
# -1022, and e_max - e_min + L.bit_length() at 970 against 971 (L = 12)
ROUTING_EDGES = [
    ([1 / (j + 2) for j in range(10)], True),
    ([0.5], True),
    ([2.0**-1022] + [2.0**-990 * (1 + j / 7) for j in range(11)], True),
    ([2.0**-1023] + [2.0**-990 * (1 + j / 7) for j in range(11)], False),
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
# -0.0 and p = 1 as the first, a middle and the last entry, and a tail
# of zeros after a sure success
@example([-0.0, 0.25] * 11 + [-0.0])
@example([1.0] + [1 / (j + 3) for j in range(11)])
@example([1 / (j + 3) for j in range(11)] + [1.0] + [0.1, 1e-9, 1 - 2**-53] * 4)
@example([1 / (j + 3) for j in range(11)] + [1.0])
@example([0.4, 1.0] + [0.0, -0.0] * 11)
# both near-tie families [0.5] + [1/(m+2)]*(m+1) and [0, 0.3] + [1/(m+1)]*m
@example([0.5] + [1 / 7] * 6)
@example([0.5] + [1 / 1001] * 1000)
@example([0.0, 0.3] + [1 / 8] * 7)
@example([0.0, 0.3] + [1 / 1000] * 999)
@example([-0.0, 0.0, -0.0])
# all-zero tails on the grid: R and the fsum probes must both give +0.0
@example([-0.0] * 12)
@example([0.0, -0.0] * 6)
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
    assert_routes_agree(probs)


def _suffix_sums_and_frexp_calls(seq):
    # seq.R, built on first read, and the number of math.frexp calls that
    # built it: two for e_min and e_max, and outside the guard one more for
    # each finite tail odds
    with mock.patch.object(math, "frexp", wraps=math.frexp) as frexp:
        R = seq.R
    return R, frexp.call_count


@pytest.mark.parametrize("probs, grid", ROUTING_EDGES)
def test_suffix_sums_routing(probs, grid):
    seq = validate_probabilities(probs)
    R, frexp_calls = _suffix_sums_and_frexp_calls(seq)
    assert frexp_calls == (2 if grid else 2 + seq.n)
    assert [x.hex() for x in R] == [x.hex() for x in exact_suffix_sums(seq.r)]


# n = 2000 outside the guard: subnormal odds mixed with ordinary ones, all
# subnormal odds, and normal odds whose exponents spread past 970, with a
# tail of 1000 tiny ones whose own sums are reported
FREXP_LARGE = [
    [math.ldexp(j + 1, -1074) if j % 3 == 0 else 1 / (j + 3) for j in range(2000)],
    [math.ldexp(j * 7919 % 2**52 + 1, -1074) for j in range(2000)],
    [0.3 + j / 10**5 if j % 2 else 2.0**-1000 * (1 + j / 4096) for j in range(1000)]
    + [2.0**-1000 * (1 + j / 4096) for j in range(1000)],
]


@given(frexp_prob_lists)
@example([5e-324])
@example([2.0**-972, 0.25])
@example([0.5, 2.0**-1022 - 2.0**-1074, 0.0, 1e-300])
@example(FREXP_LARGE[0])
@example(FREXP_LARGE[1])
@example(FREXP_LARGE[2])
def test_frexp_suffix_sums_correctly_rounded(probs):
    seq = validate_probabilities(probs)
    R, frexp_calls = _suffix_sums_and_frexp_calls(seq)
    assert frexp_calls == 2 + seq.n
    assert [x.hex() for x in R] == [x.hex() for x in exact_suffix_sums(seq.r)]


@pytest.mark.parametrize("head", [5e-324, 1e-300], ids=["subnormal", "tiny"])
def test_tiny_head_suffix_sums_correctly_rounded(head):
    # n = 10^5 (too slow an exact reference for a Hypothesis example's
    # deadline): one tiny odds at the head sends the whole tail outside
    # the guard
    seq = validate_probabilities([head] + [1 / (j + 2) for j in range(10**5 - 1)])
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
    assert_routes_agree(probs)


# tails that stress the in-place read of _suffix_sum: zeros of either
# sign, subnormals, +inf, odds up to 2**53 beside odds below 2**-970
adversarial_odds = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, 5e-324, 2.0**-1022, 2.0**53]),
        st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
        st.floats(min_value=2.0**-1074, max_value=2.0**-970),
        st.floats(min_value=0.0, max_value=2.0**53),
    ),
    max_size=40,
)


@given(adversarial_odds)
@example([-0.0, -0.0])
@example([2.0**53, 2.0**-1074, -0.0, math.inf, 5e-324])
def test_suffix_sum_is_fsum_of_the_slice(odds):
    odds = tuple(odds)
    for l in range(1, len(odds) + 2):
        assert core._suffix_sum(odds, l).hex() == (math.fsum(odds[l - 1 :]) + 0.0).hex()


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


def assert_routes_agree(probs):
    """R_s and R_{s+1} of the threshold's fsum probes have the bits of the
    grid or loop tuple seq.R, sign of zero included."""
    fresh = validate_probabilities(probs)
    t = threshold(fresh)
    R_next = fresh._threshold[1]
    R = fresh.R
    assert t.R_s.hex() == R[t.s - 1].hex()
    assert R_next.hex() == (R[t.s] if t.s < fresh.n else 0.0).hex()


# any head, then an equal window whose odds sum to within rounding of 1
near_ties = st.builds(
    lambda head, m, extra: head + [1 / (m + 1)] * (m + extra),
    st.lists(wide_probabilities, max_size=5),
    st.integers(min_value=1, max_value=400),
    st.sampled_from([0, 1]),
)


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, 1.0 if ulps > 0 else 0.0)
    return x


# a run of tiny odds in front of a tail of equal odds nudged to within a
# few ulps of 1: a float running sum from the back rounds each tiny odds
# to 0 or to a whole ulp, so its guess of s can be far from the threshold
tiny_heads = st.builds(
    lambda tiny, count, m, ulps, tail_p: (
        [tiny] * count + [_nudged(1 / (m + 1), ulps)] + [1 / (m + 1)] * (m - 1) + tail_p
    ),
    st.sampled_from([3e-18, 1e-17, 5e-17, 6e-17, 1e-16, 2e-16]),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-4, max_value=4),
    st.lists(st.sampled_from([0.0, -0.0, 1e-300]), max_size=3),
)


@given(st.one_of(wide_prob_lists, near_ties, tiny_heads))
@example([1.0])
@example([0.3, 1.0, 0.2, 1.0, 0.1])
@example([0.0, 0.0, 0.0])
@example([0.5, 0.5])
@example([0.5, 0.49999999997])  # only R_{s+1} is within 1e-9 of 1
@example([0.0, 0.3] + [1 / 9] * 8)
@example([0.5] + [1 / 7] * 6)
@example([5e-324, 1 - 2**-53, 2.2250738585072014e-308])
@example([1e-17] * 20000 + [0.09999999999999] * 9)  # s = 8897, the guess 0
@example([3e-18] * 20000 + [0.09999999999999] * 9)  # s = 1, the guess 0
def test_threshold_matches_linear_scan(probs):
    seq = validate_probabilities(probs)
    t = threshold(seq)
    assert (t.s, t.R_s, t.boundary_flag) == scan_threshold(seq)
    assert_routes_agree(probs)


def fsum_probes(probs):
    """(n, s, the indices l whose tail sum R_l threshold() takes on a
    fresh sequence, in call order, and the number of math.fsum calls)."""
    seq = validate_probabilities(probs)
    with mock.patch.object(core, "_suffix_sum", wraps=core._suffix_sum) as spy, \
            mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
        s = threshold(seq).s
    return seq.n, s, [call.args[1] for call in spy.call_args_list], fsum.call_count


def assert_probes_logarithmic(probs):
    """No R_l is summed twice, R_1 only when s = 1, and at most
    2*ceil(log2 n) + 4 sums are taken, all of them probes."""
    n, s, probes, fsum_calls = fsum_probes(probs)
    assert fsum_calls == len(probes)
    assert len(set(probes)) == len(probes), probes
    assert (1 in probes) == (s == 1), probes
    assert len(probes) <= 2 * math.ceil(math.log2(n)) + 4


@pytest.mark.parametrize(
    "probs",
    [
        [1e-17] * 20000 + [0.09999999999999] * 9,  # guess 0, s = 8897: gallop up
        [3e-18] * 20000 + [0.09999999999999] * 9,  # guess 0, s = 1: two probes
        [6e-17] * 3000 + [(1 - 1e-13) / (2 - 1e-13)],  # guess 2098, s = 1331: gallop down
        [0.5] + [1 / 99919] * 99918,
        [1 / j for j in range(1, 2001)],
        [0.0] * 1000,
        [1.0] * 1000,
        [0.5],
        [1.0],
        [0.1, 0.2],  # s = 1 with R_1 < 1
        [0.6, 0.1],  # s = 1 with R_1 >= 1
        [0.1, 0.2, 0.6],  # s = n
    ],
    ids=[
        "up_8897", "s_1", "down_1331", "near_tie_1e5", "secretary", "zeros", "sure", "n_1",
        "n_1_sure", "s_1_below_1", "s_1_above_1", "s_n",
    ],
)
def test_threshold_fsum_probes_are_logarithmic(probs):
    assert_probes_logarithmic(probs)


@pytest.mark.parametrize(
    "probs, expected",
    [
        # a right guess with 2 <= s < n is confirmed at s and s + 1
        ([0.1, 0.5, 0.5, 0.1], [3, 4]),
        ([0.0, 0.3] + [0.2] * 5 + [0.0], [4, 5]),
        # s = n needs the probe at n alone
        ([0.1, 0.2, 0.6], [3]),
        # guess 0 and R_2 < 1: s = 1, and R_1 is summed for R_s
        ([0.1, 0.2], [2, 1]),
        # guess 0, s = 5771 of n = 8000: the gallop from 1 passes at
        # 4097, its next step 8193 is past n + 1, and the bracket
        # (4097, 8001) is bisected
        (
            [5e-17] * 7991 + [0.09999999999999] * 9,
            [1 + 2**k for k in range(13)]
            + [6049, 5073, 5561, 5805, 5683, 5744, 5774, 5759, 5766, 5770, 5772, 5771],
        ),
        # guess 1: the search starts as if l = 1 had passed, so it
        # probes 2 and sums R_1 once, after the bracket closes
        ([0.5, 0.1, 0.1, 0.1], [2, 1]),
        # the float guess overshoots to 5 while s = 1: the fails walk down
        # 5, 4, 3, the next step (1) is the bracket's closed end, so 2 is
        # its midpoint, and R_1 is summed for R_s
        (
            [0.0] * 4
            + [0.10000000000000005, 0.09999999999999999, 0.10000000000000005,
               0.09999999999999999, 0.10000000000000003, 0.09999999999999995,
               0.09999999999999994, 0.09999999999999995, 0.09999999999999991],
            [5, 4, 3, 2, 1],
        ),
        # guess 0 with n = 8192: the gallop from 1 passes at 4097 and its
        # next step lands exactly on n + 1, the bracket's open end, so the
        # bracket (4097, 8193) is bisected
        (
            [4e-17] * 8183 + [0.09999999999999] * 9,
            [1 + 2**k for k in range(13)]
            + [6145, 5121, 5633, 5377, 5505, 5441, 5409, 5393, 5401, 5405, 5407, 5408],
        ),
    ],
    ids=[
        "right_guess", "right_guess_zero_tail", "s_n", "s_1_guess_0", "gallop_past_n",
        "guess_1", "guess_overshoots_s_1", "gallop_onto_n_plus_1",
    ],
)
def test_threshold_probe_lists(probs, expected):
    """The exact probes of the search, so that a change to the probe
    (an exact comparator, say) cannot add sums in the common case."""
    n, s, probes, _ = fsum_probes(probs)
    assert probes == expected
    assert s == scan_threshold(validate_probabilities(probs))[0]


@settings(max_examples=50)
@given(tiny_heads)
def test_threshold_fsum_probes_are_logarithmic_on_tiny_heads(probs):
    assert_probes_logarithmic(probs)


def test_threshold_matches_linear_scan_on_near_tie_families():
    for m in range(1, 400):
        for probs in ([0.0, 0.3] + [1 / (m + 1)] * m, [0.5] + [1 / (m + 2)] * (m + 1)):
            seq = validate_probabilities(probs)
            t = threshold(seq)
            assert (t.s, t.R_s, t.boundary_flag) == scan_threshold(seq), probs


def window_formula(seq, s):
    """(V_n, product_form) at s, evaluated afresh by the formula that
    win_probability documents: the reference for its memo."""
    p_s = seq.p[s - 1]
    R_next = seq.R[s] if s < seq.n else 0.0
    survive = math.exp(math.fsum(math.log1p(-x) for x in seq.p[s:]))
    value = survive * (p_s + (1.0 - p_s) * R_next)
    product_form = (
        None if p_s == 1.0 else seq.R[s - 1] / math.prod(1.0 + x for x in seq.r[s - 1 :])
    )
    return value, product_form


def _hex(*xs):
    return [None if x is None else float(x).hex() for x in xs]


@given(st.one_of(wide_prob_lists, near_ties))
@example([1.0])
@example([-0.0, 0.0, 5e-324, 1.0, 0.5])
@example([0.0, 0.3] + [1 / 9] * 8)
def test_memo_bits_equal_a_fresh_evaluation(probs):
    seq = validate_probabilities(probs)
    assert _hex(*seq.r) == _hex(*(x / (1.0 - x) if x < 1.0 else math.inf for x in probs))
    t = threshold(seq)
    w = win_probability(seq, t)
    report = bound_report(seq)
    assert (t.s, t.R_s, t.boundary_flag) == scan_threshold(seq)
    expected = _hex(*window_formula(seq, t.s))
    assert _hex(w.value, w.product_form) == expected
    assert _hex(report.v_n) == expected[:1]
    # a report on a sequence whose memo is still empty has the same bits
    assert repr(bound_report(validate_probabilities(probs))) == repr(report)
    assert_routes_agree(probs)


bad_entries = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 1.5]),
    st.floats(max_value=-5e-324),
    st.floats(min_value=1.0, exclude_min=True),
)


@given(st.lists(st.one_of(wide_probabilities, bad_entries), min_size=1, max_size=30))
def test_first_entry_outside_the_unit_interval_is_named(probs):
    bad = [i for i, x in enumerate(probs, 1) if not 0.0 <= x <= 1.0]
    if not bad:
        assert validate_probabilities(probs).p == tuple(probs)
        return
    i = bad[0]
    x = probs[i - 1]
    error = NotANumber if math.isnan(x) or math.isinf(x) else OutOfRange
    with pytest.raises(error) as err:
        validate_probabilities(probs)
    assert err.value.index == i
    assert str(err.value) == str(error(i, x))


class Real(float):
    """A float subclass, such as numpy's float64, whose float() is a new
    plain float rather than the entry itself."""


def _validated_bits(probs):
    """p's and r's types and bits, or the error's type, message and index."""
    try:
        seq = validate_probabilities(probs)
    except OddsRuleError as err:
        return type(err), str(err), getattr(err, "index", None)
    return [(type(x), x.hex()) for x in seq.p + seq.r]


@given(st.lists(
    st.one_of(
        wide_probabilities,
        bad_entries,
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.0**-1022 - 2.0**-1074, -5e-324]),
        st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
    ),
    max_size=30,
), st.sampled_from([0, ODDS_CHUNK - 15, 2 * ODDS_CHUNK - 15]))
def test_float_subclass_reads_as_plain_float(probs, pad):
    # pad puts the drawn entries across a seam of the validation's chunks
    probs = [0.25] * pad + probs
    assert _validated_bits([Real(x) for x in probs]) == _validated_bits(probs)


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
@example([0.5, 0.3333333333333333, 0.3333333333333333])  # V_n rounds onto the case-3 bound
def test_bound_report_never_violates(probs):
    seq = validate_probabilities(probs)
    report = bound_report(seq)
    assert report.lower - 1e-12 <= report.v_n <= report.upper + 1e-12
    assert 0.0 <= report.lower and report.upper <= 1.0
    # lower <= upper can invert by an ulp only where both coincide with
    # v_n (single-entry windows attain both bounds at once)
    assert report.lower <= report.upper + 1e-12
    if report.lower > report.upper:
        assert abs(report.lower - report.v_n) <= 1e-12
        assert abs(report.upper - report.v_n) <= 1e-12
    if report.lower_case == 3:
        # V_n exceeds the case-3 bound strictly, but by less than an ulp
        # it can round onto the bound's double: floats are checked with >=
        assert report.v_n >= report.lower
    # the paper's claim, the strict inequality of case 3 included, holds
    # on the exact values of the input doubles
    assert theorem_holds(exact_bound_report(probs))


@given(
    st.one_of(prob_lists, wide_prob_lists, grid_prob_lists, frexp_prob_lists, near_ties, tiny_heads)
)
@example([0.5238095238095238] + [0.0] * 10)  # R_1 = 1.0 + 1.0/10, above 11/10
def test_bound_report_bits_equal_the_public_bounds(probs):
    seq = validate_probabilities(probs)
    n, (s, R_s, _) = seq.n, threshold(seq)
    r = bound_report(seq)
    low = lower_bound(n, s, R_s)
    assert _hex(r.upper) == _hex(upper_bound(R_s))
    assert (r.lower_case, _hex(r.lower), r.lower_strict) == (low.case, _hex(low.value), low.strict)
    assert _hex(r.corollary) == _hex(corollary_bound(n, s))


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
    assert abs(v - upper_bound(t.R_s)) <= 1e-15


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
