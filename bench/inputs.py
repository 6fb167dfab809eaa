"""Seeded input generators and exact reference values for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain
Python data (lists of floats, ints, tuples), so the library under test
receives only generated inputs.  Lengths and family assignments are
stratified rather than drawn independently: the mix of work per run is
then nearly the same for every seed, while the probability values
themselves change with the seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

BATCH_FAMILIES = ("uniform", "small_p", "secretary", "sure", "near_tie_a", "near_tie_b")
EXTREMAL_FAMILIES = ("upper", "case1", "case2", "case3")
LARGE_SHAPES = ("beta", "secretary", "uniform", "sure", "near_tie")
ORACLE_FAMILIES = ("uniform", "secretary", "small_p", "near_tie")


def stratified_log_lengths(rng, count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths log-uniform in [lo, hi], one draw per stratum."""
    span = math.log(hi + 0.5) - math.log(lo - 0.5)
    out = []
    for i in range(count):
        u = (i + rng.random()) / count
        out.append(min(hi, max(lo, round(math.exp(math.log(lo - 0.5) + u * span)))))
    return out


def family_sequence(rng, family: str, n: int) -> list[float]:
    """One probability sequence of (about) length ``n`` from ``family``.

    The near-tie families put a suffix odds sum within an ulp or so of 1
    (ROADMAP open item 1); their length is at least 3.
    """
    if family == "uniform":
        return rng.random(n).tolist()
    if family == "small_p":
        # mean odds about c/n with c in [0.5, 1.5]: the window spans most of n
        c = 0.5 + rng.random()
        return (rng.random(n) * min(1.0, 2.0 * c / n)).tolist()
    if family == "secretary":
        return [1.0 / j for j in range(1, n + 1)]
    if family == "sure":
        p = (rng.random(n) * min(1.0, 2.0 / n)).tolist()
        p[int(rng.integers(0, n))] = 1.0
        return p
    m = max(1, n - 2)
    if family == "near_tie_a":
        return [0.5] + [1.0 / (m + 2)] * (m + 1)
    if family == "near_tie_b":
        return [0.0, 0.3] + [1.0 / (m + 1)] * m
    raise ValueError(f"unknown family {family!r}")


def extremal_request(rng, family: str, n: int) -> tuple:
    """Arguments for one extremal generator call at random (n, s)."""
    if family == "case3":
        n = max(n, 2)
        return (family, n, int(rng.integers(1, n)), 0.5 + 0.499 * rng.random())
    s = int(rng.integers(1, n + 1))
    if family == "upper":
        low = 1.0 if s > 1 else 0.1
        return (family, n, s, low + (4.0 - low) * rng.random())
    if family == "case1":
        return (family, n, 1, 0.05 + 0.9 * rng.random())
    return (family, n, s, None)


def large_sequence(rng, shape: str, n: int) -> list[float]:
    """The n ~ 10^5 shapes of ``analyze-large``."""
    if shape == "beta":
        return rng.beta(1.0, n / 2.0, n).tolist()
    if shape == "secretary":
        return [1.0 / j for j in range(1, n + 1)]
    if shape == "uniform":
        return rng.random(n).tolist()
    if shape == "sure":
        p = rng.beta(1.0, n / 2.0, n).tolist()
        p[n - int(rng.integers(1, max(2, n // 100)))] = 1.0
        return p
    if shape == "near_tie":
        fam = "near_tie_a" if rng.random() < 0.5 else "near_tie_b"
        return family_sequence(rng, fam, n - int(rng.integers(0, 100)))
    raise ValueError(f"unknown shape {shape!r}")


def oracle_sequence(rng, family: str, n: int) -> list[float]:
    """Sequences for ``oracle-check``; every family keeps V_n away from 0."""
    if family == "small_p":
        return rng.beta(1.0, n / 2.0, n).tolist() if n >= 4 else family_sequence(rng, family, n)
    if family == "near_tie":
        return family_sequence(rng, "near_tie_a" if rng.random() < 0.5 else "near_tie_b", n)
    return family_sequence(rng, family, n)


def window(probs) -> int:
    """n - s + 1 for the threshold s found by exact_threshold."""
    return len(probs) - exact_threshold(probs) + 1


# Fixed-point scale for the exact threshold: suffix sums are bracketed by
# integer floors and ceilings of odds * 2^256.
_K = 256
_ONE = 1 << _K


def exact_threshold(probs) -> int:
    """Largest l whose exact rational suffix odds sum reaches 1, else 1.

    Same definition as the test suite's exact oracle (exact odds of the
    input floats), but the suffix sums are bracketed in 2^-256 fixed
    point so long sequences stay cheap; only a bracket that straddles 1
    falls back to ``Fraction``.
    """
    lo = hi = 0
    for l in range(len(probs), 0, -1):
        a, b = float(probs[l - 1]).as_integer_ratio()
        if a == b:
            return l
        q, r = divmod(a << _K, b - a)
        lo += q
        hi += q + (1 if r else 0)
        if lo >= _ONE:
            return l
        if hi >= _ONE:
            exact = sum(Fraction(x) / (1 - Fraction(x)) for x in probs[l - 1 :])
            if exact >= 1:
                return l
    return 1
