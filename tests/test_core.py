import math
import pickle
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from exact_oracle import (
    exact_threshold,
    exact_win,
    exact_window_win,
    prob_to_odds,
    two_pass_lindley_threshold,
)
from oddsrule import (
    EmptySequence,
    InvalidArgument,
    NotANumber,
    OddsSequence,
    OutOfRange,
    ThresholdResult,
    TooLarge,
    bound_report,
    corollary_bound,
    lindley_threshold,
    lower_bound,
    lower_extremal_case1,
    lower_extremal_case2,
    lower_near_extremal_case3,
    odds_to_prob,
    secretary_sequence,
    threshold,
    upper_extremal,
    validate_probabilities,
    win_probability,
)
from traced import traced_peak


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

    @pytest.mark.parametrize(
        "p", ["10", b"\x01\x00", bytearray(b"\x01\x00")], ids=["str", "bytes", "bytearray"]
    )
    def test_rejects_characters_or_bytes_as_the_sequence(self, p):
        # float() of each character or byte value would give p = (1, 0)
        with pytest.raises(InvalidArgument):
            validate_probabilities(p)

    @pytest.mark.parametrize(
        "probs, error, index",
        [
            ([1.0, math.nan], NotANumber, 2),
            ([1.0, 1.5], OutOfRange, 2),
            ([math.nan, 0.5, 1.0, 1.5], NotANumber, 1),
            ([1.0, 1.0, -0.0, -0.5, math.inf], OutOfRange, 4),
        ],
        ids=["sure_then_nan", "sure_then_above_one", "nan_first", "sure_and_minus_zero_first"],
    )
    def test_first_bad_entry_after_a_sure_success(self, probs, error, index):
        # p = 1 passes the range check inside the odds pass; the next bad
        # entry is still the one named
        with pytest.raises(error) as err:
            validate_probabilities(probs)
        assert err.value.index == index
        assert str(err.value) == str(error(index, probs[index - 1]))

    def test_entry_float_rejects_is_named_before_an_earlier_one_out_of_range(self):
        with pytest.raises(NotANumber) as err:
            validate_probabilities([0.5, 1.5, "half", -1.0])
        assert (err.value.index, err.value.value) == (3, "half")

    def test_a_sequence_that_grows_while_read_is_refused(self):
        class Growing(list):
            def __iter__(self):
                self.append(0.5)
                return super().__iter__()

        with pytest.raises(InvalidArgument, match="changed while it was read"):
            validate_probabilities(Growing([0.5, 0.25]))

    def test_numeric_strings_in_a_list_stay_accepted(self):
        assert validate_probabilities(["0.5", "0.25"]).p == (0.5, 0.25)

    @pytest.mark.parametrize("p", [{0.9, 0.1, 0.5}, frozenset({0.9, 0.1, 0.5})],
                             ids=["set", "frozenset"])
    def test_rejects_a_set(self, p):
        # iterated in hash order, (0.9, 0.5, 0.1), which decides the threshold
        with pytest.raises(InvalidArgument, match="got (set|frozenset)"):
            validate_probabilities(p)

    @pytest.mark.parametrize("p", [[0.5, None], [0.5, 0.25]], ids=["bad_entry", "good"])
    def test_rejects_a_one_shot_iterator(self, p):
        # a bad entry could not be named: the second walk finds nothing left
        with pytest.raises(InvalidArgument, match="got generator"):
            validate_probabilities(x for x in p)

    @pytest.mark.parametrize("p", [5, 0.5, None], ids=["int", "float", "None"])
    def test_rejects_a_non_iterable(self, p):
        with pytest.raises(InvalidArgument, match=f"got {type(p).__name__}$"):
            validate_probabilities(p)

    @pytest.mark.parametrize("container", [list, tuple, np.array], ids=["list", "tuple", "array"])
    def test_lists_tuples_and_arrays_stay_accepted(self, container):
        assert validate_probabilities(container([0.5, 0.25, 1.0])).p == (0.5, 0.25, 1.0)

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

    @pytest.mark.parametrize(
        "probs, s, R_s",
        [
            ([1e-17] * 20000 + [0.09999999999999] * 9, 8897, "0x1.0000000000000p+0"),
            ([3e-18] * 20000 + [0.09999999999999] * 9, 1, "0x1.ffffffffffe34p-1"),
        ],
        ids=["s_8897", "s_1"],
    )
    def test_float_guess_far_from_s(self, probs, s, R_s):
        # the float running sum from the back rounds every tiny odds away
        # and never reaches 1, so the guess (0) is thousands of indices off
        seq = validate_probabilities(probs)
        t = threshold(seq)
        assert (t.s, t.R_s.hex()) == (s, R_s)
        assert seq.R[s - 1].hex() == R_s
        assert seq.R[s] < 1.0 <= seq.R[s - 1] or s == 1

    # The library decides s on the correctly rounded sum of the stored odds,
    # the exact oracle on the exact odds of the input doubles; on these near
    # ties the two differ by one (library 3, 2 and 2 against exact 2, 1, 1).
    # The fix of ROADMAP item 1 makes them pass and removes the marker.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize(
        "probs",
        [[0, 0.3] + [1 / 9] * 8, [0.5] + [1 / 7] * 6, list(lower_extremal_case2(6, 2).seq.p)],
        ids=["head_0_0.3", "head_0.5", "case2_n6_s2"],
    )
    def test_s_is_the_exact_threshold_on_near_ties(self, probs):
        assert threshold(validate_probabilities(probs)).s == exact_threshold(probs)

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
        # only the threshold itself is evaluated: an index outside [1, n]
        # is just another s that is not it
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(InvalidArgument, match="s = 0 is not the threshold"):
            win_probability(seq, ThresholdResult(s=0, R_s=2.0, boundary_flag=True))
        with pytest.raises(InvalidArgument, match="s = 3 is not the threshold"):
            win_probability(seq, ThresholdResult(s=3, R_s=0.0, boundary_flag=True))

    @pytest.mark.parametrize("s", [2.5, 2.0, "2", None], ids=["2.5", "2.0", "str", "None"])
    def test_non_integer_s_is_invalid(self, s):
        seq = validate_probabilities([0.5, 0.5])
        with pytest.raises(InvalidArgument, match="s must be an integer"):
            win_probability(seq, ThresholdResult(s=s, R_s=1.0, boundary_flag=False))

    def test_integer_like_s_is_accepted(self):
        seq = validate_probabilities([0.5, 0.5])
        w = win_probability(seq, threshold(seq))
        assert win_probability(seq, ThresholdResult(s=np.int64(2), R_s=1.0, boundary_flag=True)) is w

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


def test_analysis_holds_no_copy_of_the_window():
    # validate -> threshold -> win_probability -> bound_report on a near
    # tie whose window is the whole sequence.  The sequence keeps p, r and
    # r's floats (p's are the caller's); beyond them only the threshold
    # guess's two 1024-entry chunks are alive at once.  A list of the odds
    # beside r, or a slice of the window, adds 0.76-0.79 MiB.
    probs = [0.5] + [1 / 99919] * 99918

    def analyze():
        seq = validate_probabilities(probs)
        win_probability(seq, threshold(seq))
        bound_report(seq)

    seq = validate_probabilities(probs)
    kept = sys.getsizeof(seq.p) + sys.getsizeof(seq.r) + sum(map(sys.getsizeof, seq.r))
    assert traced_peak(analyze) - kept < 0.25 * 2**20
    # validation alone allocates each tuple once, at its final size
    assert traced_peak(validate_probabilities, probs) - kept < 0.01 * 2**20


class CountingTuple(tuple):
    """A tuple that counts its window reads: the iterations of it,
    forward and reversed."""

    forward = backward = 0

    def __iter__(self):
        self.forward += 1
        return super().__iter__()

    def __reversed__(self):
        self.backward += 1
        return reversed(tuple(super().__iter__()))


class TestMemo:
    def test_window_is_evaluated_once(self):
        seq = validate_probabilities([0.1, 0.4, 0.3, 0.2, 0.25])
        seq = OddsSequence(CountingTuple(seq.p), CountingTuple(seq.r))
        t = threshold(seq)
        w = win_probability(seq, t)
        report = bound_report(seq)
        assert threshold(seq) is t
        assert win_probability(seq, threshold(seq)) is w
        assert report.v_n == w.value
        # p is read once, from the back, for the value; r from the back by
        # the threshold's guess and its two fsum probes R_s and R_{s+1}
        # (the guess is right here), and forward once for the product form
        reads = (seq.p.forward, seq.p.backward, seq.r.forward, seq.r.backward)
        assert reads == (0, 1, 1, 3)

    def test_filled_memo_leaves_equality_hash_and_pickle_alone(self):
        probs = [0.1, 0.4, 0.3, 0.2]
        seq, fresh = validate_probabilities(probs), validate_probabilities(probs)
        bound_report(seq)
        assert set(vars(fresh)) == {"p", "r"}
        assert set(vars(seq)) > {"p", "r"}  # the memos are filled
        assert seq == fresh
        assert hash(seq) == hash(fresh)
        assert repr(seq) == repr(fresh)
        assert pickle.dumps(seq) == pickle.dumps(fresh)
        for copy in (pickle.loads(pickle.dumps(seq)), pickle.loads(pickle.dumps(fresh))):
            assert copy == fresh
            assert hash(copy) == hash(fresh)
            assert threshold(copy) == threshold(fresh)
            assert win_probability(copy, threshold(copy)) == win_probability(fresh, threshold(fresh))

    def test_replaced_sequence_recomputes(self):
        seq = validate_probabilities([0.1, 0.4, 0.3, 0.2])
        w = win_probability(seq, threshold(seq))
        R = seq.R
        other = validate_probabilities([0.6, 0.1, 0.1])
        moved = OddsSequence(other.p, other.r)
        assert moved == other
        assert moved.R == other.R != R
        assert threshold(moved) == threshold(other)
        assert threshold(moved).s != threshold(seq).s
        assert win_probability(moved, threshold(moved)) == win_probability(other, threshold(other))
        assert win_probability(moved, threshold(moved)) != w
        # and the original keeps its own
        assert win_probability(seq, threshold(seq)) is w

    def test_other_s_after_the_memo_is_filled(self):
        seq = validate_probabilities([0.5, 0.5, 0.1])  # R = (2.11.., 1.11.., 0.11..): s = 2
        t = threshold(seq)
        w = win_probability(seq, t)
        assert t.s == 2
        # an earlier index, a later one (R_{s+1} < 1 there too), one
        # outside [1, n] and a float equal to the threshold are all refused
        for s in (1, 3, 0, 4):
            with pytest.raises(InvalidArgument, match=f"s = {s} is not the threshold"):
                win_probability(seq, ThresholdResult(s=s, R_s=seq.R[0], boundary_flag=False))
        with pytest.raises(InvalidArgument, match="s must be an integer"):
            win_probability(seq, ThresholdResult(s=2.0, R_s=t.R_s, boundary_flag=False))
        assert threshold(seq) is t
        assert win_probability(seq, t) is w

    def test_threads_racing_on_the_first_read_get_equal_reports(self):
        probs = [0.5] + [1 / 2001] * 2000  # a long window keeps the race open
        alone = bound_report(validate_probabilities(probs))
        workers = 8

        def read(seq, barrier, reports, i):
            barrier.wait(timeout=30)
            reports[i] = bound_report(seq)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                seq, reports = validate_probabilities(probs), [None] * workers
                barrier = threading.Barrier(workers)
                threads = [
                    threading.Thread(target=read, args=(seq, barrier, reports, i))
                    for i in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert reports == [alone] * workers
                assert threshold(seq) is threshold(seq)
                assert win_probability(seq, threshold(seq)) is win_probability(seq, threshold(seq))
        finally:
            sys.setswitchinterval(interval)


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

    def test_matches_the_two_pass_reference(self):
        for n in [*range(1, 3001), 10**5, 10**6]:
            assert lindley_threshold(n) == two_pass_lindley_threshold(n), n

    def test_runs_in_constant_memory(self):
        # the reference's list of n + 1 floats peaks at about 30 MiB here
        assert traced_peak(lindley_threshold, 10**6) < 2**20


# Each function that takes a count n or an index s refuses a float, a
# string or None with the package's own error: no TypeError from the
# arithmetic, and no value computed from a fractional s.
NON_INTEGER_CALLS = {
    "lower_bound_case3": (lower_bound, (7, 6.5, 5.0), "s"),
    "lower_bound_case2": (lower_bound, (7, 6.5, 1.5), "s"),
    "lower_bound_n": (lower_bound, (7.0, 1, 1.5), "n"),
    "corollary_bound_n": (corollary_bound, (7.5, 7), "n"),
    "corollary_bound_s": (corollary_bound, (7, "7"), "s"),
    "upper_extremal": (upper_extremal, (4, 1.0, 2.0), "s"),
    "lower_extremal_case1": (lower_extremal_case1, (4.0, 0.5), "n"),
    "lower_extremal_case2": (lower_extremal_case2, (4.0, 1), "n"),
    "lower_near_extremal_case3": (lower_near_extremal_case3, (4, None), "s"),
    "secretary_sequence": (secretary_sequence, (3.0,), "n"),
    "lindley_threshold": (lindley_threshold, (3.5,), "n"),
}


@pytest.mark.parametrize("func, args, name", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_non_integer_n_or_s_is_invalid(func, args, name):
    with pytest.raises(InvalidArgument, match=f"{name} must be an integer"):
        func(*args)


def test_integer_like_n_and_s_are_accepted():
    n, s = np.int64(6), np.int64(3)
    assert lower_bound(n, s, 1.2) == lower_bound(6, 3, 1.2)
    assert corollary_bound(n, s) == corollary_bound(6, 3)
    assert lower_extremal_case2(n, s) == lower_extremal_case2(6, 3)
    assert secretary_sequence(n) == secretary_sequence(6)
    assert lindley_threshold(n) == lindley_threshold(6)


# An n or s of magnitude sys.maxsize or more is no list's length: each
# function refuses it with TooLarge before it allocates or computes, and
# the message gives the bit length, since str() refuses an int of more
# than 4300 digits.
OVERSIZED_CALLS = {
    "lower_bound_case3": (lower_bound, (10**400, 1, 1.5), "n", 1329),
    "lower_bound_case1": (lower_bound, (10**400, 1, 0.5), "n", 1329),
    "lower_bound_2_63": (lower_bound, (2**63, 2, 3.0), "n", 64),
    "lower_bound_s": (lower_bound, (5, 10**5000, 1.0), "s", 16610),
    "lower_bound_negative_s": (lower_bound, (5, -(10**5000), 1.0), "s", 16610),
    "corollary_bound": (corollary_bound, (10**400, 2), "n", 1329),
    "upper_extremal": (upper_extremal, (2**63, 1, 1.0), "n", 64),
    "lower_extremal_case1": (lower_extremal_case1, (2**63, 0.5), "n", 64),
    "lower_extremal_case1_negative": (lower_extremal_case1, (-(10**5000), 0.5), "n", 16610),
    "lower_extremal_case2": (lower_extremal_case2, (2**63, 1), "n", 64),
    "lower_near_extremal_case3": (lower_near_extremal_case3, (2**63, 1), "n", 64),
    "lower_near_extremal_case3_s": (lower_near_extremal_case3, (5, 10**5000), "s", 16610),
    "secretary_sequence": (secretary_sequence, (2**63,), "n", 64),
    "lindley_threshold": (lindley_threshold, (2**63,), "n", 64),
}


@pytest.mark.parametrize("func, args, name, bits", OVERSIZED_CALLS.values(), ids=OVERSIZED_CALLS)
def test_a_size_no_list_reaches_is_too_large(func, args, name, bits):
    with pytest.raises(TooLarge) as info:
        func(*args)
    assert str(info.value) == f"{name} is an integer of {bits} bits; need |{name}| < sys.maxsize"


def test_sizes_below_the_cap_are_accepted():
    assert lower_bound(sys.maxsize - 1, 2, 3.0).case == 3
    assert corollary_bound(sys.maxsize - 1, 2) == lower_bound(sys.maxsize - 1, 2, 1.0).value


# Each function that takes a float R_s, R_1 or alpha refuses a value that
# does not mix with floats with the package's own error: a Decimal (a
# TypeError from 1.0 + r) and an int or Fraction beyond float range (an
# OverflowError from math.isnan).
FLOAT_ARGUMENT_CALLS = {
    "odds_to_prob": (odds_to_prob, (), "R_s"),
    "lower_bound": (lower_bound, (5, 1), "R_s"),
    "upper_extremal": (upper_extremal, (5, 2), "R_s"),
    "lower_extremal_case1": (lower_extremal_case1, (5,), "R_1"),
    "lower_near_extremal_case3": (lower_near_extremal_case3, (5, 2), "alpha"),
}


@pytest.mark.parametrize(
    "x", [Decimal("0.5"), 10**400, Fraction(10**400, 3)], ids=["decimal", "huge_int", "huge_fraction"]
)
@pytest.mark.parametrize("func, args, name", FLOAT_ARGUMENT_CALLS.values(), ids=FLOAT_ARGUMENT_CALLS)
def test_a_number_floats_cannot_take_is_invalid(func, args, name, x):
    with pytest.raises(InvalidArgument) as info:
        func(*args, x)
    assert str(info.value) == f"{name} must be a number, got {x!r}"


def test_ints_and_fractions_in_float_range_are_accepted():
    assert odds_to_prob(3) == 0.75
    assert odds_to_prob(Fraction(1, 3)) == 0.25
    assert lower_bound(5, 1, Fraction(1, 2)) == lower_bound(5, 1, 0.5)
    assert upper_extremal(5, 2, 3) == upper_extremal(5, 2, 3.0)
