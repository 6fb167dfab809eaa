import hashlib
import math
import struct
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from exact_oracle import exact_window_win
from oddsrule import (
    InconsistentInput,
    InvalidArgument,
    bound_report,
    lower_bound,
    lower_extremal_case1,
    lower_extremal_case2,
    lower_near_extremal_case3,
    odds_to_prob,
    threshold,
    upper_bound,
    upper_extremal,
    validate_probabilities,
    win_probability,
)

# Window widths m <= 399 whose case-2 head needs a nudge of at least 64
# ulps before the suffix odds sum reaches 1.
LARGE_NUDGE_WIDTHS = (
    143, 151, 170, 176, 180, 195, 213, 218, 236, 267, 287, 303,
    309, 318, 321, 335, 341, 355, 383, 391, 393, 396, 398,
)


def _case2_grid():
    # (n, s) at s in {1, 2, n // 2, n}: every n < 200, then four large n
    for n in list(range(1, 200)) + [10**3, 4097, 10**4, 10**5]:
        for s in sorted({1, 2, n // 2, n} & set(range(1, n + 1))):
            yield n, s


def _win(seq):
    return win_probability(seq, threshold(seq)).value


@st.composite
def upper_requests(draw):
    """(n, s, R_s) that upper_extremal accepts: R_s >= 1 (inf included)
    at any s, and R_s in (0, 1) only at s = 1."""
    n = draw(st.integers(min_value=1, max_value=40))
    s = draw(st.integers(min_value=1, max_value=n))
    below_one = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    return n, s, draw(st.floats(min_value=1.0) | (below_one if s == 1 else st.nothing()))


class TestUpperExtremal:
    def test_reference(self):
        cfg = upper_extremal(5, 3, 1.0)
        assert cfg.seq.p == (0.0, 0.0, 0.5, 0.0, 0.0)
        assert _win(cfg.seq) == 0.5 == cfg.target_bound
        assert cfg.attainment == "exact"

    def test_single_item(self):
        cfg = upper_extremal(1, 1, 1.0)
        assert cfg.seq.p == (0.5,)
        assert _win(cfg.seq) == 0.5

    def test_mid_window(self):
        cfg = upper_extremal(4, 2, 3.0)
        assert cfg.seq.p == (0.0, 0.75, 0.0, 0.0)
        assert _win(cfg.seq) == 0.75

    def test_threshold_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            s = int(rng.integers(1, n + 1))
            R_s = rng.uniform(1.0, 5.0) if s > 1 else rng.uniform(0.05, 5.0)
            cfg = upper_extremal(n, s, R_s)
            t = threshold(cfg.seq)
            assert t.s == s
            assert abs(_win(cfg.seq) - upper_bound(t.R_s)) <= 1e-15
            assert abs(_win(cfg.seq) - cfg.target_bound) <= 1e-15

    @given(upper_requests())
    @example((5, 3, 1.0))
    @example((5, 3, math.nextafter(1.0, 2.0)))
    @example((5, 5, 1e300))
    @example((5, 2, math.inf))
    @example((3, 1, 5e-324))
    def test_p_s_needs_no_nudge(self, args):
        # for R_s >= 1, p_s >= 1/2, so 1 - p_s is exact and the stored odds
        # are at least 1; at s = 1 any p_s leaves the threshold at 1
        n, s, R_s = args
        cfg = upper_extremal(n, s, R_s)
        assert cfg.seq.p[s - 1] == odds_to_prob(R_s)
        assert threshold(cfg.seq).s == s

    def test_rejects_sub_unit_sum_with_late_threshold(self):
        with pytest.raises(InconsistentInput):
            upper_extremal(5, 3, 0.5)

    def test_rejects_zero_sum(self):
        with pytest.raises(InconsistentInput):
            upper_extremal(5, 1, 0.0)


class TestLowerExtremalCase1:
    def test_reference(self):
        cfg = lower_extremal_case1(2, 0.5)
        assert cfg.seq.p == (0.2, 0.2)
        assert _win(cfg.seq) == pytest.approx(0.32, abs=1e-15)
        assert cfg.target_bound == pytest.approx(0.32, abs=1e-15)

    def test_single_item(self):
        cfg = lower_extremal_case1(1, 0.5)
        assert cfg.seq.p == (pytest.approx(1.0 / 3.0, abs=1e-16),)
        assert _win(cfg.seq) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_attainment(self):
        cfg = lower_extremal_case1(3, 0.9)
        assert cfg.seq.p[0] == pytest.approx(0.9 / 3.9, abs=1e-15)
        assert abs(_win(cfg.seq) - cfg.target_bound) <= 1e-12

    def test_threshold_is_one_and_case_matches(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            R_1 = rng.uniform(0.02, 0.98)
            cfg = lower_extremal_case1(n, R_1)
            t = threshold(cfg.seq)
            assert t.s == 1
            assert lower_bound(n, 1, t.R_s).case == 1
            assert abs(_win(cfg.seq) - cfg.target_bound) <= 1e-12

    def test_rejects_endpoints(self):
        with pytest.raises(InconsistentInput):
            lower_extremal_case1(3, 0.0)
        with pytest.raises(InconsistentInput):
            lower_extremal_case1(3, 1.0)
        with pytest.raises(InconsistentInput):
            lower_extremal_case1(3, -0.2)

    def test_rejects_empty_horizon(self):
        with pytest.raises(InconsistentInput, match=r"^need n >= 1, got 0$"):
            lower_extremal_case1(0, 0.5)


class TestLowerExtremalCase2:
    def test_reference(self):
        cfg = lower_extremal_case2(4, 1)
        assert cfg.seq.p == (0.2, 0.2, 0.2, 0.2)
        assert _win(cfg.seq) == pytest.approx(0.4096, abs=1e-15)
        assert cfg.target_bound == pytest.approx(0.4096, abs=1e-15)

    def test_degenerate_window(self):
        cfg = lower_extremal_case2(6, 6)
        assert cfg.seq.p[-1] == 0.5
        assert _win(cfg.seq) == 0.5
        assert cfg.target_bound == 0.5

    def test_mid_threshold(self):
        # n = 6, s = 3: four window entries at p = 1/(n-s+2) = 1/5, each
        # carrying odds 1/4, so the window sum is 1 and the target is
        # (5/4)^-4 = 0.4096.
        cfg = lower_extremal_case2(6, 3)
        assert cfg.seq.p[:2] == (0.0, 0.0)
        assert cfg.seq.p[2] == pytest.approx(0.2, abs=1e-15)
        assert cfg.target_bound == pytest.approx(0.4096, abs=1e-15)
        assert abs(_win(cfg.seq) - cfg.target_bound) <= 1e-12

    def test_threshold_round_trip_and_case(self):
        # includes window sizes whose odds round-trip lands an ulp short
        # of 1 and needs the generator's nudge (e.g. m = 2, 5, 13)
        for n in range(1, 60):
            for s in (1, max(1, n // 2), n):
                cfg = lower_extremal_case2(n, s)
                t = threshold(cfg.seq)
                assert t.s == s
                assert lower_bound(n, s, t.R_s).case == 2
                assert abs(_win(cfg.seq) - cfg.target_bound) <= 1e-12

    @pytest.mark.parametrize("m", list(range(1, 21)) + list(LARGE_NUDGE_WIDTHS))
    def test_attains_bound_at_s1(self, m):
        cfg = lower_extremal_case2(m, 1)
        t = threshold(cfg.seq)
        assert t.s == 1 and t.R_s >= 1.0
        assert lower_bound(m, 1, t.R_s).case == 2
        assert abs(_win(cfg.seq) - cfg.target_bound) <= 1e-12

    def test_head_is_the_least_double_that_places_the_threshold(self):
        # zeros, then the head, then m - 1 entries of 1/(m+1); the head is
        # 1/(m+1) or the least double above it that puts R_s at 1.0 or
        # more, so one double lower loses s or that R_s.  The digest pins
        # the bits of p and of the target.
        digest = hashlib.sha256()
        for n, s in _case2_grid():
            cfg = lower_extremal_case2(n, s)
            m, p = n - s + 1, cfg.seq.p
            floor, head = 1.0 / (m + 1), p[s - 1]
            assert p == (0.0,) * (s - 1) + (head,) + (floor,) * (m - 1)
            t = threshold(cfg.seq)
            assert t.s == s and t.R_s >= 1.0
            assert head >= floor
            if head != floor:
                lower = list(p)
                lower[s - 1] = math.nextafter(head, 0.0)
                t = threshold(validate_probabilities(lower))
                assert t.s != s or t.R_s < 1.0, (n, s)
            digest.update(struct.pack(f"<{n + 1}d", *p, cfg.target_bound))
        assert digest.hexdigest() == "f63ca99c20b5dc71cc2b29a140286bf815a32d4827e54060fd1a782e3599cfba"

    def test_validates_once(self, monkeypatch):
        lengths = []

        def spy(p):
            lengths.append(len(p))
            return validate_probabilities(p)

        monkeypatch.setattr("oddsrule.extremal.validate_probabilities", spy)
        lower_extremal_case2(4097, 2048)
        assert lengths == [4097]


class TestLowerNearExtremalCase3:
    def test_reference(self):
        cfg = lower_near_extremal_case3(2, 1, 0.5)
        assert cfg.seq.p[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cfg.seq.p[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert cfg.target_bound == 0.5
        assert _win(cfg.seq) == pytest.approx(5.0 / 9.0, abs=1e-14)
        assert cfg.attainment == "limiting"

    def test_alpha_near_one(self):
        cfg = lower_near_extremal_case3(5, 3, 0.999)
        target = cfg.target_bound
        assert target == pytest.approx(1.5 ** -2.0, abs=1e-15)
        v = _win(cfg.seq)
        assert v > target
        assert abs(v - target) < 1e-2

    def test_gap_shrinks_as_alpha_rises(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            s = int(rng.integers(1, n))
            gaps = []
            for alpha in (0.9, 0.99, 0.999, 0.9999):
                cfg = lower_near_extremal_case3(n, s, alpha)
                assert threshold(cfg.seq).s == s
                assert lower_bound(n, s, threshold(cfg.seq).R_s).case == 3
                gap = _win(cfg.seq) - cfg.target_bound
                assert gap > 0.0
                gaps.append(gap)
            assert gaps == sorted(gaps, reverse=True)

    def test_strict_bound_flags_no_equality(self):
        # at 1 - alpha = 1e-6 the gap, of order 1e-12, lies within
        # EQUALITY_TOL on every one of these configurations
        configs = [(n, s) for n in range(2, 40) for s in range(1, n)]
        assert len(configs) == 741
        for n, s in configs:
            report = bound_report(lower_near_extremal_case3(n, s, 1.0 - 1e-6).seq)
            assert report.lower_strict, (n, s)
            assert report.equality["lower"] is False, (n, s)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    def test_float_value_above_the_bound(self, gap):
        # the gap to the bound shrinks like gap**2, still above the rounding
        # of V_n here; near gap = 1e-8 it is not (see the next test)
        for n in range(2, 41):
            for s in range(1, n):
                cfg = lower_near_extremal_case3(n, s, 1.0 - gap)
                assert _win(cfg.seq) > cfg.target_bound, (n, s)

    @pytest.mark.parametrize("n, s", [(2, 1), (6, 1), (10, 3), (40, 39), (120, 7)])
    def test_exact_value_above_the_bound_at_alpha_near_one(self, n, s):
        # at 1 - alpha = 1e-12 the float V_n can fall to the float bound or
        # below it; the exact V_n of the stored sequence stays above the
        # exact bound (m / (m + 1))^m, m = n - s
        cfg = lower_near_extremal_case3(n, s, 1.0 - 1e-12)
        m = n - s
        assert exact_window_win(cfg.seq.p, s) > Fraction(m, m + 1) ** m

    def test_default_alpha(self):
        cfg = lower_near_extremal_case3(4, 2)
        assert cfg.parameters.alpha == pytest.approx(1.0 - 1e-3)
        assert _win(cfg.seq) > cfg.target_bound

    def test_rejects_bad_parameters(self):
        with pytest.raises(InconsistentInput):
            lower_near_extremal_case3(4, 4, 0.5)  # strict case empty at s = n
        with pytest.raises(InconsistentInput):
            lower_near_extremal_case3(4, 1, 0.0)
        with pytest.raises(InconsistentInput):
            lower_near_extremal_case3(4, 1, 1.0)

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (1.0, "need alpha in (0, 1), got 1.0"),
            (
                math.nextafter(1.0, 0.0),
                "alpha = 0.9999999999999999 is too close to 1 to keep the "
                "threshold at s = 3 in double precision",
            ),
        ],
    )
    def test_refusal_messages(self, alpha, message):
        # alpha = 1 is refused by the range check, not by the threshold's
        with pytest.raises(InconsistentInput) as info:
            lower_near_extremal_case3(10, 3, alpha)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "generate, args, name, nan_message",
    [
        (upper_extremal, (5, 2), "R_s", "need R_s > 0, got nan"),
        (lower_extremal_case1, (5,), "R_1", "need 0 < R_1 < 1 (endpoints belong to other cases), got nan"),
        (lower_near_extremal_case3, (7, 2), "alpha", "need alpha in (0, 1), got nan"),
    ],
)
def test_a_non_number_raises_the_package_error(generate, args, name, nan_message):
    # these raised a bare TypeError from math.isnan; a NaN keeps its message
    for x in ("x", None, "0.9", 1j):
        with pytest.raises(InvalidArgument, match=f"^{name} must be a number, got {x!r}$"):
            generate(*args, x)
    with pytest.raises(InconsistentInput) as info:
        generate(*args, math.nan)
    assert str(info.value) == nan_message


def _small_configs():
    # (bound, config) for each generator over n < 60, at s in {1, n // 2, n}
    for n in range(1, 60):
        for s in sorted({1, max(1, n // 2), n}):
            yield "lower", lower_extremal_case2(n, s)
            for R_s in (1.0, 1.5, 7.0):
                yield "upper", upper_extremal(n, s, R_s)
            if s < n:
                for alpha in (0.9, 0.999):
                    yield "lower", lower_near_extremal_case3(n, s, alpha)
        yield "upper", upper_extremal(n, 1, 0.5)
        for R_1 in (0.25, 0.5, 0.9):
            yield "lower", lower_extremal_case1(n, R_1)


def _small_records():
    # (attainment, parameters) of each _small_configs() record, in its order
    for n in range(1, 60):
        for s in sorted({1, max(1, n // 2), n}):
            yield "exact", (n, s, 1.0, None)
            for R_s in (1.0, 1.5, 7.0):
                yield "exact", (n, s, R_s, None)
            if s < n:
                for alpha in (0.9, 0.999):
                    yield "limiting", (n, s, 2.0 - alpha + 1.0 / (n - s), alpha)
        yield "exact", (n, 1, 0.5, None)
        for R_1 in (0.25, 0.5, 0.9):
            yield "exact", (n, 1, R_1, None)


def test_records_pin_attainment_and_parameters():
    # case 1 reports the requested R_1 at s = 1, case 2 R_s = 1, case 3 the
    # nominal window sum 2 - alpha + 1/(n-s) with its alpha, upper its R_s
    records = [(cfg.attainment, cfg.parameters) for _, cfg in _small_configs()]
    assert records == list(_small_records())


def test_target_bound_is_the_public_bound_with_pinned_bits():
    # the generators call the unchecked bound formulas: each target has
    # the bits of the checked entry point, and the digest pins those bits
    digest = hashlib.sha256()
    for bound, cfg in _small_configs():
        n, s = cfg.parameters.n, cfg.parameters.s
        R_s = threshold(cfg.seq).R_s
        public = upper_bound(R_s) if bound == "upper" else lower_bound(n, s, R_s).value
        assert cfg.target_bound.hex() == public.hex(), cfg.parameters
        digest.update(cfg.target_bound.hex().encode())
    assert digest.hexdigest() == "239c75b9ec548a345b6c6d83fa2430a9c8b805babf5c6f3cd849f4d37eff3d05"


class TestPerturbationBreaksEquality:
    """Moving any window coordinate off an exact configuration loses the
    equality, in the direction the bound allows."""

    def test_upper_config_suffix_perturbations(self):
        rng = np.random.default_rng(41)
        tested = 0
        for _ in range(40):
            n = int(rng.integers(2, 20))
            s = int(rng.integers(1, n))  # guarantee a nonempty suffix
            R_s = rng.uniform(1.0, 4.0) if s > 1 else rng.uniform(0.1, 4.0)
            cfg = upper_extremal(n, s, R_s)
            for j in range(s + 1, n + 1):
                p = list(cfg.seq.p)
                p[j - 1] += 1e-3
                seq = validate_probabilities(p)
                t = threshold(seq)
                if t.s != s:
                    continue
                tested += 1
                assert _win(seq) < upper_bound(t.R_s)
        assert tested > 50

    def test_case1_config_perturbations(self):
        rng = np.random.default_rng(43)
        tested = 0
        for _ in range(40):
            n = int(rng.integers(2, 15))
            cfg = lower_extremal_case1(n, rng.uniform(0.1, 0.9))
            for j in range(1, n + 1):
                for delta in (1e-3, -1e-3):
                    p = list(cfg.seq.p)
                    p[j - 1] += delta
                    if not 0.0 <= p[j - 1] <= 1.0:
                        continue
                    seq = validate_probabilities(p)
                    t = threshold(seq)
                    if t.s != 1:
                        continue
                    tested += 1
                    low = lower_bound(n, 1, t.R_s)
                    assert _win(seq) > low.value
        assert tested > 100

    def test_case2_config_perturbations(self):
        rng = np.random.default_rng(47)
        tested = 0
        for _ in range(40):
            n = int(rng.integers(2, 15))
            s = int(rng.integers(1, n + 1))
            if n - s + 1 < 2:
                continue  # a single-entry window stays extremal either way
            cfg = lower_extremal_case2(n, s)
            for j in range(s, n + 1):
                for delta in (1e-3, -1e-3):
                    p = list(cfg.seq.p)
                    p[j - 1] += delta
                    seq = validate_probabilities(p)
                    t = threshold(seq)
                    if t.s != s:
                        continue
                    tested += 1
                    low = lower_bound(n, s, t.R_s)
                    assert _win(seq) > low.value
        assert tested > 100


class TestUpperUniqueness:
    def test_only_one_hot_window_attains_equality(self):
        # fixed (n, s, R_s): random odds profiles over the window, scaled
        # to the same sum, must all stay strictly below the bound
        rng = np.random.default_rng(53)
        n, s, R_s = 6, 2, 1.7
        attained = 0
        checked = 0
        while checked < 1000:
            w = rng.uniform(0.05, 1.0, size=n - s + 1)
            odds = w * (R_s / w.sum())
            p = [0.0] * (s - 1) + [r / (1.0 + r) for r in odds]
            seq = validate_probabilities(p)
            t = threshold(seq)
            if t.s != s:
                continue
            checked += 1
            v = _win(seq)
            assert v <= upper_bound(t.R_s) + 1e-15
            if abs(v - upper_bound(t.R_s)) <= 1e-12:
                attained += 1
        assert attained == 0
        # ... while the one-hot profile does attain it
        cfg = upper_extremal(n, s, R_s)
        assert abs(_win(cfg.seq) - upper_bound(threshold(cfg.seq).R_s)) <= 1e-15
