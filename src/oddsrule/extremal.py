"""Probability sequences at which the sharp bounds are attained.

Each generator returns the sequence together with the bound value it
attains (``attainment = "exact"``) or approaches from above
(``attainment = "limiting"``: above in exact arithmetic, but see
lower_near_extremal_case3 on rounding).  Entries before the threshold
are set to 0: the success probability and the bounds depend only on the
window [s, n], and zeros are the canonical prefix that leaves the
threshold where it was requested.

The generators guarantee ``threshold(seq).s`` equals the requested ``s``.
Because the odds are re-derived from the rounded probabilities, the
case-2 window head sometimes needs an upward nudge so that the suffix
odds sum reaches 1 exactly (e.g. m equal odds of nominal value 1/m can
round to one ulp below 1).  The head is computed, not searched for: an
estimate from the tail's exact sum, then ``nextafter`` steps (at most
two on every width checked) to the least double that passes the
threshold's own compare, and the sequence is validated once.  For the
case-2 window of width 1..1000 at s = 1 and s = 4 the nudge ranges
from 0 to 730 ulps (372 of the 2 000 heads are nudged), and the
attained value stays within 2.3e-16 of the bound (at most 2.2e-16, at
m = 984, s = 1), far inside the 1e-12 equality tolerance.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

from .bounds import _lower
from .core import (
    OddsSequence, _number, _prob, _size, _suffix_sum, _window, threshold,
    validate_probabilities,
)
from .errors import InconsistentInput

DEFAULT_ALPHA = 1.0 - 1e-3


class GenerationParameters(NamedTuple):
    n: int
    s: int
    R_s: float
    alpha: float | None = None


class ExtremalConfig(NamedTuple):
    seq: OddsSequence
    target_bound: float
    attainment: Literal["exact", "limiting"]
    parameters: GenerationParameters


def _case2_head(m: int) -> float:
    # The least double p >= 1/(m+1) whose odds, with m - 1 tail odds of
    # 1/(m+1), put the window's sum at 1.0 or more by the threshold's own
    # compare; the tail alone stays below 1, so the threshold lands on the
    # head.  A sum of at least 1 - 2**-54 rounds to 1.0 (half to even), so
    # the odds that close the gap to it estimate p.  The sum does not
    # decrease with p: nextafter each way makes p the least that passes.
    floor = 1.0 / (m + 1)
    r_tail = floor / (1.0 - floor)
    window = [r_tail] * m

    def reaches(p: float) -> bool:
        window[0] = p / (1.0 - p)
        return _suffix_sum(window, 1) >= 1.0

    need = math.fsum([1.0, -2.0**-54] + [-r_tail] * (m - 1))
    p = max(floor, need / (1.0 + need))
    while not reaches(p):
        p = math.nextafter(p, 1.0)
    while p > floor and reaches(lower := math.nextafter(p, 0.0)):
        p = lower
    return p


def _lower_config(
    seq: OddsSequence,
    params: GenerationParameters,
    attainment: Literal["exact", "limiting"],
) -> ExtremalConfig:
    # the target is the lower bound at the sequence's own R_s
    low = _lower(params.n, params.s, threshold(seq).R_s)
    return ExtremalConfig(seq, low.value, attainment, params)


def upper_extremal(n: int, s: int, R_s: float) -> ExtremalConfig:
    """Single-entry window attaining the upper bound: p_s = R_s/(1+R_s),
    every other probability 0.  It needs no nudge: for R_s >= 1, p_s >= 1/2,
    so 1 - p_s is exact and the stored odds are >= 1; at s = 1 any p_s works.
    """
    n, s = _window(n, s)
    if not _number("R_s", R_s) > 0.0:
        raise InconsistentInput(f"need R_s > 0, got {R_s!r}")
    if s > 1 and R_s < 1.0:
        raise InconsistentInput(
            f"R_s = {R_s!r} < 1 cannot produce a threshold at s = {s} > 1"
        )
    p = [0.0] * n
    p[s - 1] = _prob(R_s)
    seq = validate_probabilities(p)
    return ExtremalConfig(
        seq=seq,
        target_bound=_prob(threshold(seq).R_s),
        attainment="exact",
        parameters=GenerationParameters(n=n, s=s, R_s=R_s),
    )


def lower_extremal_case1(n: int, R_1: float) -> ExtremalConfig:
    """Constant sequence attaining the sub-unit lower bound:
    p_j = R_1/(n + R_1), so every odds equals R_1/n."""
    n = _size("n", n)
    if n < 1:
        raise InconsistentInput(f"need n >= 1, got {n}")
    if not 0.0 < _number("R_1", R_1) < 1.0:
        raise InconsistentInput(
            f"need 0 < R_1 < 1 (endpoints belong to other cases), got {R_1!r}"
        )
    seq = validate_probabilities([R_1 / (n + R_1)] * n)
    return _lower_config(seq, GenerationParameters(n=n, s=1, R_s=R_1), "exact")


def lower_extremal_case2(n: int, s: int) -> ExtremalConfig:
    """Equal window attaining the unit-sum lower bound:
    p_j = 1/(n-s+2) for j >= s, which puts every window odds at
    1/(n-s+1) and the suffix sum at exactly 1.  The head p_s is the
    least double from there whose odds bring the rounded sum to 1."""
    n, s = _window(n, s)
    m = n - s + 1
    p = [0.0] * (s - 1) + [_case2_head(m)] + [1.0 / (m + 1)] * (m - 1)
    seq = validate_probabilities(p)
    return _lower_config(seq, GenerationParameters(n=n, s=s, R_s=1.0), "exact")


def lower_near_extremal_case3(
    n: int, s: int, alpha: float = DEFAULT_ALPHA
) -> ExtremalConfig:
    """Family approaching the strict lower bound as alpha -> 1.

    The window head takes odds 2 - 2*alpha + 1/(n-s) and the tail equal
    odds alpha/(n-s), so the tail suffix sum is alpha < 1 while the full
    window sum exceeds 1 + 1/(n-s).  The exact value of the stored
    sequence stays strictly above the bound, and the gap shrinks like
    (1-alpha)^2.  In floats that gap is lost in rounding once 1 - alpha
    is below about 1e-8: the computed V_n can then equal target_bound or
    fall below it.  No input checked with 1 - alpha >= 1e-7 did.
    """
    n, s = _size("n", n), _size("s", s)
    if not 1 <= s < n:
        raise InconsistentInput(
            f"need 1 <= s < n (the strict case is empty at s = n), "
            f"got s = {s}, n = {n}"
        )
    if not 0.0 < _number("alpha", alpha) < 1.0:
        raise InconsistentInput(f"need alpha in (0, 1), got {alpha!r}")
    m = n - s
    head = (1.0 + (2.0 - 2.0 * alpha) * m) / (1.0 + (3.0 - 2.0 * alpha) * m)
    tail = alpha / (m + alpha)
    seq = validate_probabilities([0.0] * (s - 1) + [head] + [tail] * m)
    if threshold(seq).s != s:
        raise InconsistentInput(
            f"alpha = {alpha!r} is too close to 1 to keep the threshold "
            f"at s = {s} in double precision"
        )
    params = GenerationParameters(n=n, s=s, R_s=2.0 - alpha + 1.0 / m, alpha=alpha)
    return _lower_config(seq, params, "limiting")
