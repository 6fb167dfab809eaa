"""Probability sequences at which the sharp bounds are attained.

Each generator returns the sequence together with the bound value it
attains (``attainment = "exact"``) or approaches from above
(``attainment = "limiting"``).  Entries before the threshold are set to
0: the success probability and the bounds depend only on the window
[s, n], and zeros are the canonical prefix that leaves the threshold
where it was requested.

The generators guarantee ``threshold(seq).s`` equals the requested ``s``.
Because the odds are re-derived from the rounded probabilities, the
case-2 window head sometimes needs an upward nudge so that the suffix
odds sum crosses 1 exactly (e.g. m equal odds of nominal value 1/m can
round to one ulp below 1).  The generator takes the smallest that works.
For the case-2 window of width 1..1000 it ranges from 0 to 730 ulps,
and the attained value stays within 2.3e-16 of the bound (s = 1 and
s = 4), far inside the 1e-12 equality tolerance.
"""

from __future__ import annotations

import math
import struct
from typing import Literal, NamedTuple

from .bounds import lower_bound, upper_bound
from .core import OddsSequence, _integer, _window, odds_to_prob, threshold, validate_probabilities
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


def _ulps_above(x: float, ulps: int) -> float:
    """x >= 0 raised by ``ulps`` units in the last place, capped at 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0] + ulps
    return min(struct.unpack("<d", struct.pack("<q", bits))[0], 1.0)


def _build_at_threshold(p: list[float], s: int) -> OddsSequence:
    # Raise p_s by the fewest ulps that put the threshold at s with R_s
    # itself at least 1 (at s = 1 the threshold cannot tell R_1 = 1 from
    # a sum one ulp short).  R_{s+1..n} does not depend on p_s and R_s
    # grows with it, so the condition is monotone in the ulp count:
    # double the count until it holds, then bisect for the least.
    head = p[s - 1]

    def build(ulps: int) -> OddsSequence | None:
        p[s - 1] = _ulps_above(head, ulps)
        seq = validate_probabilities(p)
        t = threshold(seq)
        return seq if t.s == s and t.R_s >= 1.0 else None

    lo, hi = -1, 0  # build(lo) fails, build(hi) is tried next
    while (seq := build(hi)) is None:
        if p[s - 1] == 1.0:
            raise InconsistentInput(f"cannot place the threshold at s = {s}")
        lo, hi = hi, 2 * hi or 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = build(mid)
        if found is None:
            lo = mid
        else:
            hi, seq = mid, found
    return seq


def upper_extremal(n: int, s: int, R_s: float) -> ExtremalConfig:
    """Single-entry window attaining the upper bound: p_s = R_s/(1+R_s),
    every other probability 0.  It needs no nudge: for R_s >= 1, p_s >= 1/2,
    so 1 - p_s is exact and the stored odds are >= 1; at s = 1 any p_s works.
    """
    n, s = _window(n, s)
    if math.isnan(R_s) or R_s <= 0.0:
        raise InconsistentInput(f"need R_s > 0, got {R_s!r}")
    if s > 1 and R_s < 1.0:
        raise InconsistentInput(
            f"R_s = {R_s!r} < 1 cannot produce a threshold at s = {s} > 1"
        )
    p = [0.0] * n
    p[s - 1] = odds_to_prob(R_s)
    seq = validate_probabilities(p)
    return ExtremalConfig(
        seq=seq,
        target_bound=upper_bound(threshold(seq).R_s),
        attainment="exact",
        parameters=GenerationParameters(n=n, s=s, R_s=R_s),
    )


def lower_extremal_case1(n: int, R_1: float) -> ExtremalConfig:
    """Constant sequence attaining the sub-unit lower bound:
    p_j = R_1/(n + R_1), so every odds equals R_1/n."""
    n = _integer("n", n)
    if n < 1:
        raise InconsistentInput(f"need n >= 1, got {n}")
    if math.isnan(R_1) or not 0.0 < R_1 < 1.0:
        raise InconsistentInput(
            f"need 0 < R_1 < 1 (endpoints belong to other cases), got {R_1!r}"
        )
    p = [R_1 / (n + R_1)] * n
    seq = validate_probabilities(p)
    t = threshold(seq)
    low = lower_bound(n, 1, t.R_s)
    return ExtremalConfig(
        seq=seq,
        target_bound=low.value,
        attainment="exact",
        parameters=GenerationParameters(n=n, s=1, R_s=R_1),
    )


def lower_extremal_case2(n: int, s: int) -> ExtremalConfig:
    """Equal window attaining the unit-sum lower bound:
    p_j = 1/(n-s+2) for j >= s, which puts every window odds at
    1/(n-s+1) and the suffix sum at exactly 1."""
    n, s = _window(n, s)
    m = n - s + 1
    p = [0.0] * (s - 1) + [1.0 / (m + 1)] * m
    seq = _build_at_threshold(p, s)
    t = threshold(seq)
    low = lower_bound(n, s, t.R_s)
    return ExtremalConfig(
        seq=seq,
        target_bound=low.value,
        attainment="exact",
        parameters=GenerationParameters(n=n, s=s, R_s=1.0),
    )


def lower_near_extremal_case3(
    n: int, s: int, alpha: float = DEFAULT_ALPHA
) -> ExtremalConfig:
    """Family approaching the strict lower bound as alpha -> 1.

    The window head takes odds 2 - 2*alpha + 1/(n-s) and the tail equal
    odds alpha/(n-s), so the tail suffix sum is alpha < 1 while the full
    window sum exceeds 1 + 1/(n-s).  The attained value stays strictly
    above the bound and the gap shrinks like (1-alpha)^2.
    """
    n, s = _integer("n", n), _integer("s", s)
    if not 1 <= s < n:
        raise InconsistentInput(
            f"need 1 <= s < n (the strict case is empty at s = n), "
            f"got s = {s}, n = {n}"
        )
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise InconsistentInput(f"need alpha in (0, 1), got {alpha!r}")
    m = n - s
    head = (1.0 + (2.0 - 2.0 * alpha) * m) / (1.0 + (3.0 - 2.0 * alpha) * m)
    tail = alpha / (m + alpha)
    p = [0.0] * (s - 1) + [head] + [tail] * m
    seq = validate_probabilities(p)
    t = threshold(seq)
    if t.s != s:
        raise InconsistentInput(
            f"alpha = {alpha!r} is too close to 1 to keep the threshold "
            f"at s = {s} in double precision"
        )
    low = lower_bound(n, s, t.R_s)
    return ExtremalConfig(
        seq=seq,
        target_bound=low.value,
        attainment="limiting",
        parameters=GenerationParameters(
            n=n, s=s, R_s=2.0 - alpha + 1.0 / m, alpha=alpha
        ),
    )
