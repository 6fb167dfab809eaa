"""Core model for stopping on the last success of independent indicators.

A trial sequence is described by success probabilities ``p_1 .. p_n``.  The
optimal way to stop on the *last* success is an odds rule: convert each
probability to odds ``r_j = p_j / (1 - p_j)``, sum the odds from the back,
and let ``s`` be the largest index where the suffix sum still reaches 1
(or 1 if it never does).  The rule then stops at the first success at
index ``s`` or later, and its success probability is

    V_n = prod_{j=s..n} (1 - p_j) * sum_{l=s..n} r_l.

This module builds the validated sequence (odds and suffix sums included),
locates the threshold, and evaluates V_n by one formula, with the
odds-ratio form R_s / prod(1 + r_j) attached as a cross-check.

All public indices are 1-based, matching the usual mathematical
convention; the tuples stored on the dataclasses are ordinary 0-based
Python containers.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import Sequence

from .errors import EmptySequence, IndexOutOfRange, InvalidArgument, NotANumber, OutOfRange

# |R_l - 1| below this marks the threshold decision as numerically touchy.
BOUNDARY_EPS = 1e-9

# Sequences shorter than this keep the per-entry suffix-sum loop: there
# the grid's fixed cost (the scan for p = 1, min, max, frexp) outweighs
# what its C-level passes save.
GRID_MIN_LEN = 11


def prob_to_odds(p: float) -> float:
    """Odds p/(1-p); +inf for a sure success (p = 1)."""
    if p >= 1.0:
        return math.inf
    return p / (1.0 - p)


def odds_to_prob(r: float) -> float:
    """Inverse of :func:`prob_to_odds`: r/(1+r), with inf mapping to 1."""
    if math.isinf(r):
        return 1.0
    return r / (1.0 + r)


@dataclass(frozen=True)
class OddsSequence:
    """Validated success probabilities with derived odds and suffix sums.

    ``r[j]`` is the odds of entry ``j`` (+inf where p = 1) and ``R[l-1]``
    holds the suffix sum ``r_l + ... + r_n``: the exact sum of the stored
    odds rounded once to nearest (half to even), +inf when a sure success
    lies at or after ``l``.

    The finite sums are exact integer sums on one binary grid when the
    finite odds allow it.  Let ``e_min`` and ``e_max`` be the
    ``math.frexp`` exponents of the smallest nonzero and the largest
    finite odds, and ``K = 53 - e_min``:

    * if ``e_min >= -1021`` no odds is subnormal, so each is a multiple of
      ``2**(e_min - 53)`` and ``int(ldexp(x, K))`` is exact;
    * if also ``e_max - e_min + L.bit_length() <= 970`` for the ``L``
      finite entries, every scaled odds and every running total is below
      ``2**1023``;
    * then ``ldexp(float(total), -K)`` is the correctly rounded
      ``total / 2**K``: ``float(int)`` rounds half to even, and scaling a
      normal result by a power of two is exact.

    Other inputs, and sequences shorter than ``GRID_MIN_LEN``, take a
    per-entry loop that keeps the sum in units of the largest denominator
    seen so far; both give the same bits.  Instances are immutable and
    safe to share between threads; construct them via
    :func:`validate_probabilities`.
    """

    p: tuple[float, ...]
    r: tuple[float, ...]
    R: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold index ``s`` plus the suffix odds sum at ``s``.

    ``boundary_flag`` warns that some finite suffix sum sits within 1e-9
    of 1, where the (exact, epsilon-free) comparison deciding ``s`` is
    sensitive to last-ulp rounding of the inputs.
    """

    s: int
    R_s: float
    boundary_flag: bool


@dataclass(frozen=True)
class WinProbability:
    """Success probability of the odds rule.

    ``value`` is V_n, finite and correct also when p_s = 1.
    ``product_form`` is the odds-ratio evaluation R_s / prod(1 + r_j),
    present only when p_s < 1 (the only place a threshold window can
    hold a sure success).
    """

    value: float
    product_form: float | None


def _suffix_odds_sums(odds: tuple[float, ...]) -> list[float]:
    # Right-to-left exact summation, so every stored suffix sum is the true
    # sum rounded once.  The threshold comparison R_l >= 1 is taken on these
    # correctly rounded values; an ordinary running sum can land on the
    # wrong side of 1.  Odds are >= 0, so the only non-finite value is a
    # sure success's +inf, which makes its own and every earlier suffix sum
    # inf.  The finite tail after the last sure success is summed on one
    # binary grid when the guard in _grid_suffix_sums holds (derivation in
    # the OddsSequence docstring), and by the per-entry loop otherwise.
    if len(odds) >= GRID_MIN_LEN:
        stop = len(odds) - odds[::-1].index(math.inf) if math.inf in odds else 0
        sums = _grid_suffix_sums(odds, stop)
        if sums is not None:
            sums[:0] = [math.inf] * stop
            return sums
    return _loop_suffix_sums(odds)


def _grid_suffix_sums(odds: tuple[float, ...], stop: int) -> list[float] | None:
    # Suffix sums of the finite tail odds[stop:] as exact integers in units
    # of 2**-K, in C-level passes; None when a subnormal or too wide a
    # range of odds puts the tail outside the guard.  The tail is read in
    # place and the running totals are streamed: a list of them would hold
    # n big ints at once.
    size = len(odds) - stop
    e_min = math.frexp(min(filter(None, islice(odds, stop, None)), default=0.0))[1]
    e_max = math.frexp(max(islice(odds, stop, None), default=0.0))[1]
    if e_min < -1021 or e_max - e_min + size.bit_length() > 970:
        return None
    K = 53 - e_min
    scaled = map(int, map(math.ldexp, islice(reversed(odds), size), repeat(K)))
    sums = list(map(math.ldexp, map(float, accumulate(scaled)), repeat(-K)))
    sums.reverse()
    return sums


def _loop_suffix_sums(odds: tuple[float, ...]) -> list[float]:
    # A finite double is m / d with d a power of two, so the running sum is
    # the exact integer ``total`` in units of 1/D, D the largest d seen so
    # far; a larger d rescales ``total`` by a shift, and int / int true
    # division rounds correctly.
    sums = [math.inf] * len(odds)
    total, D, k = 0, 1, 1  # k = D.bit_length()
    for j in range(len(odds) - 1, -1, -1):
        x = odds[j]
        if x == math.inf:
            break
        m, d = x.as_integer_ratio()
        e = d.bit_length()
        if e > k:
            total <<= e - k
            D, k = d, e
        total += m << (k - e)
        sums[j] = total / D
    return sums


def validate_probabilities(p: Sequence[float]) -> OddsSequence:
    """Check p_1..p_n and materialize odds and suffix odds sums.

    Raises EmptySequence for n = 0, NotANumber / OutOfRange (with the
    offending 1-based index) for bad entries, including entries float()
    rejects: OutOfRange for a number beyond float range such as 10**400,
    NotANumber for anything else (None, a complex, a non-numeric string).
    """
    try:
        probs = tuple(map(float, p))
    except (OverflowError, TypeError, ValueError):
        # p is a sequence, so it can be walked again to find that entry
        for i, x in enumerate(p, 1):
            try:
                float(x)
            except OverflowError:
                raise OutOfRange(i, x) from None
            except (TypeError, ValueError):
                raise NotANumber(i, x) from None
        raise
    if not probs:
        raise EmptySequence("need at least one probability")
    for x in probs:
        if not 0.0 <= x <= 1.0:
            # x is the first entry to fail; the entries before it lie in
            # [0, 1], so none equals x, and index() (identity first) finds
            # x itself even when it is a NaN
            i = probs.index(x) + 1
            raise (NotANumber if math.isnan(x) or math.isinf(x) else OutOfRange)(i, x)
    # prob_to_odds inlined: a call per entry costs more than the division.
    # p and r are built as tuples and the lists freed at once, so no list
    # copy of them is alive while R is built.
    odds = tuple([x / (1.0 - x) if x < 1.0 else math.inf for x in probs])
    return OddsSequence(p=probs, r=odds, R=tuple(_suffix_odds_sums(odds)))


def threshold(seq: OddsSequence) -> ThresholdResult:
    """Largest l with R_l >= 1, or 1 when no suffix sum reaches 1.

    The comparison is exact IEEE >=, no epsilon; ``boundary_flag`` is the
    advertised sensitivity warning.  R does not increase with l, so s is
    found by bisection, and the finite sums closest to 1 are R_s and
    R_{s+1}: only those two decide the flag.
    """
    # R_1..R_m >= 1 > R_{m+1}..R_n; on -R that is a bisect_right for -1
    s = max(1, bisect.bisect_right(seq.R, -1.0, key=operator.neg))
    boundary = any(
        math.isfinite(x) and abs(x - 1.0) < BOUNDARY_EPS for x in seq.R[s - 1 : s + 1]
    )
    return ThresholdResult(s=s, R_s=seq.R[s - 1], boundary_flag=boundary)


def win_probability(seq: OddsSequence, t: ThresholdResult) -> WinProbability:
    """Success probability of the odds rule with threshold ``t``.

    ``value`` is prod_{j>s} (1 - p_j) * (p_s + (1 - p_s) * R_{s+1}), with
    R_{n+1} = 0 and the product taken as exp(fsum(log1p(-p_j))).  At the
    threshold R_{s+1} < 1, so no later p_j is 1 and the product lies in
    [1/e, 1]; a sure success at p_s needs no special case.
    ``product_form`` is the odds-ratio cross-check R_s / prod(1 + r_j),
    None when p_s = 1.

    Raises IndexOutOfRange when s is outside [1, n] and InvalidArgument
    when R_{s+1} >= 1, i.e. when ``t`` is not the threshold of ``seq``.
    """
    s = t.s
    if not 1 <= s <= seq.n:
        raise IndexOutOfRange(s, seq.n)
    R_next = seq.R[s] if s < seq.n else 0.0
    if R_next >= 1.0:
        raise InvalidArgument(f"s = {s} is not the threshold: R_{s + 1} >= 1")
    p_s = seq.p[s - 1]
    survive = math.exp(math.fsum(math.log1p(-x) for x in seq.p[s:]))
    value = survive * (p_s + (1.0 - p_s) * R_next)
    product_form = (
        None if p_s == 1.0 else seq.R[s - 1] / math.prod(1.0 + x for x in seq.r[s - 1 :])
    )
    return WinProbability(value=value, product_form=product_form)


def secretary_sequence(n: int) -> OddsSequence:
    """Record-indicator probabilities p_j = 1/j for a random permutation.

    The j-th item of a uniformly random ranking is a running best with
    probability exactly 1/j, independently across j; stopping on the last
    running best recovers the classical best-choice problem.
    """
    if n < 1:
        raise EmptySequence("secretary sequence needs n >= 1")
    return validate_probabilities([1.0 / j for j in range(1, n + 1)])


def lindley_threshold(n: int) -> int:
    """Classical threshold for the best-choice problem via harmonic sums.

    Returns the k with a_{k-1} >= 1 > a_k where a_k = 1/k + ... + 1/(n-1)
    (empty sum = 0, a_0 = +inf).  Deliberately computed from plain
    left-shifted harmonic sums rather than the odds machinery, so it can
    cross-check ``threshold(secretary_sequence(n))``.
    """
    if n < 1:
        raise EmptySequence("need n >= 1")
    # a[k] = a_k for 1 <= k <= n; a_n = 0 by the empty-sum convention.
    a = [0.0] * (n + 1)
    for k in range(n - 1, 0, -1):
        a[k] = a[k + 1] + 1.0 / k
    for k in range(n, 1, -1):
        if a[k - 1] >= 1.0:
            return k
    return 1  # a_0 = +inf always qualifies
