"""Exact rational reference computations for freezing expected values.

Everything here runs on the exact binary values of the input floats, in
fractions.Fraction arithmetic or, where n is too large for Fractions, in
60-digit decimal arithmetic; none of it shares code (or rounding
behaviour) with the library's floating-point paths.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction


def exact_window_win(probs, k: int) -> Fraction:
    """P(exactly one success in [k, n]) as an exact rational.

    This is the win probability of 'stop at the first success at index
    >= k', whatever the probabilities are (p = 1 included).
    """
    none = Fraction(1)
    one = Fraction(0)
    for x in probs[k - 1 :]:
        p = Fraction(x)
        q = 1 - p
        one = one * q + none * p
        none *= q
    return one


def decimal_window_win(probs, k: int) -> Decimal:
    """exact_window_win in 60-digit decimal arithmetic.

    Each step rounds relative to 1e-60, so even at n = 10^5 the result is
    far closer to the exact value than a double can resolve.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        none = Decimal(1)
        one = Decimal(0)
        for x in probs[k - 1 :]:
            p = Decimal(x)
            q = 1 - p
            one = one * q + none * p
            none *= q
        return one


def exact_suffix_sums(odds) -> list[float]:
    """Each suffix sum of the stored odds, summed as a Fraction and rounded
    once by float(); inf from a sure success on."""
    out = []
    exact = Fraction(0)
    sure = False
    for x in reversed(odds):
        sure = sure or x == float("inf")
        if not sure:
            exact += Fraction(x)
        out.append(float("inf") if sure else float(exact))
    out.reverse()
    return out


def exact_threshold(probs) -> int:
    """Largest l whose exact suffix odds sum reaches 1, else 1."""
    total = Fraction(0)
    infinite = False
    for l in range(len(probs), 0, -1):
        p = Fraction(probs[l - 1])
        if p == 1:
            infinite = True
        elif not infinite:
            total += p / (1 - p)
        if infinite or total >= 1:
            return l
    return 1


def exact_win(probs) -> Fraction:
    """Exact success probability of the odds rule."""
    return exact_window_win(probs, exact_threshold(probs))
