"""Reference computations for freezing expected values, and the helpers
only the tests use.

exact_window_win, decimal_window_win, exact_suffix_sums, exact_threshold,
exact_win and exact_bound_report run on the exact binary values of the
input floats, in fractions.Fraction arithmetic or, where n is too large
for Fractions, in 60-digit decimal arithmetic; none of it shares code (or
rounding behaviour) with the library's floating-point paths.
theorem_holds states the paper's claim on an exact_bound_report.
full_enumeration_value is the float reference for the bits of
oracle.exhaustive_value: it sums with math.fsum, a route independent of
the library's per-exponent integer sums, as two_pass_lindley_threshold
is the reference for the bits of oracle.lindley_threshold.

The float helpers are prob_to_odds, the odds p/(1-p) of one entry;
log_product_gap (which raises NegativeInput), the gap in
ln prod(1 + x_j) >= ln(1 + sum x_j); equal_odds_sequence, a probe profile
whose nominal threshold is self-contradictory; and prior_bounds, the two
sum-free bounds of oddsrule.bound_report under their old names.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from oddsrule import (
    InconsistentInput,
    NotANumber,
    OddsSequence,
    bound_report,
    odds_to_prob,
    validate_probabilities,
)


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


class ExactBoundReport(NamedTuple):
    """The paper's quantities for one sequence, every one a Fraction
    except the index s and the case."""

    s: int
    R_s: Fraction
    v_n: Fraction
    case: int
    lower: Fraction
    upper: Fraction
    corollary: Fraction
    allaart_islas: Fraction


def exact_bound_report(probs) -> ExactBoundReport:
    """s, V_n and every bound of the paper in exact arithmetic, for
    probabilities (floats or Fractions) below 1.

    The bounds are rational for rational inputs: upper R/(1+R), case 1
    R*(n/(n+R))^n, cases 2 and 3 and the corollary (m/(m+1))^m, and the
    Allaart-Islas floor (n/(n+1))^n.  The case is decided on the exact
    R_s against the exact 1 + 1/(n-s), so the report shares no rounding
    with oddsrule.bound_report.
    """
    ps = [Fraction(x) for x in probs]
    n, s = len(ps), exact_threshold(ps)
    R_s = sum((p / (1 - p) for p in ps[s - 1 :]), Fraction(0))
    if R_s < 1:
        case, lower = 1, R_s * (n / (n + R_s)) ** n
    elif s == n or R_s <= 1 + Fraction(1, n - s):
        case, lower = 2, Fraction(n - s + 1, n - s + 2) ** (n - s + 1)
    else:
        case, lower = 3, Fraction(n - s, n - s + 1) ** (n - s)
    return ExactBoundReport(
        s,
        R_s,
        exact_window_win(ps, s),
        case,
        lower,
        R_s / (1 + R_s),
        Fraction(n - s + 1, n - s + 2) ** (n - s + 1),
        Fraction(n, n + 1) ** n,
    )


def theorem_holds(report: ExactBoundReport) -> bool:
    """The paper's claim on an exact report: lower <= V_n <= upper, with
    V_n strictly above the lower bound in case 3."""
    if report.case == 3:
        return report.lower < report.v_n <= report.upper
    return report.lower <= report.v_n <= report.upper


def full_enumeration_value(seq, k: int) -> float:
    """Win probability of the threshold-k rule from all 2^n outcome weights.

    Outcome i has I_j = bit j of i and weight prod p_j^{I_j} (1-p_j)^{1-I_j},
    multiplied left to right; the weights of the outcomes whose window
    [k, n] holds exactly one success are summed by math.fsum, not by the
    library's exact bucket sum, so the two sums check each other.  It
    forms every weight and a Python list of the winning half, so it is
    meant for n <= 20.
    """
    weights = np.ones(1)
    successes = np.zeros(1, dtype=np.int8)  # in the window [k, n]
    for j, p_j in enumerate(seq.p):
        weights = np.concatenate((weights * (1.0 - p_j), weights * p_j))
        successes = np.concatenate((successes, successes + (j >= k - 1)))
    return math.fsum(weights[successes == 1].tolist())


def two_pass_lindley_threshold(n: int) -> int:
    """The k with a_{k-1} >= 1 > a_k, a_k = 1/k + ... + 1/(n-1), from a list
    of every harmonic suffix sum (a_n = 0) scanned back from k = n.  It
    holds n + 1 floats, and makes the library's additions in its order."""
    a = [0.0] * (n + 1)
    for k in range(n - 1, 0, -1):
        a[k] = a[k + 1] + 1.0 / k
    for k in range(n, 1, -1):
        if a[k - 1] >= 1.0:
            return k
    return 1  # a_0 = +inf always qualifies


def prob_to_odds(p: float) -> float:
    """Odds p/(1-p); +inf for a sure success (p = 1)."""
    if p >= 1.0:
        return math.inf
    return p / (1.0 - p)


class NegativeInput(ValueError):
    """An odds-like quantity that must be nonnegative was negative."""


def log_product_gap(xs) -> float:
    """sum_j ln(1 + x_j) - ln(1 + sum_j x_j), nonnegative for x_j >= 0.

    Zero exactly when at most one coordinate is nonzero.  Computed as
    log1p(u / (1 + S)) where u = prod(1+x_j) - 1 - S accumulates only
    nonnegative increments, so the result can never round below 0 (the
    naive difference of two logs can, when the true gap is below 1e-16).
    """
    values = [float(x) for x in xs]
    for i, x in enumerate(values, start=1):
        if math.isnan(x) or math.isinf(x):
            raise NotANumber(i, x)
        if x < 0.0:
            raise NegativeInput(f"need nonnegative entries, got {x!r}")
    total = math.fsum(values)
    prodm1 = 0.0  # prod(1+x) - 1 over the processed prefix
    u = 0.0       # prodm1 - (running sum): the second-and-higher order mass
    for x in values:
        u += prodm1 * x
        prodm1 += x + prodm1 * x
        if math.isinf(prodm1):
            # Astronomic gap: the direct formula is safe out here.
            return math.fsum(math.log1p(v) for v in values) - math.log1p(total)
    return math.log1p(u / (1.0 + total))


def equal_odds_sequence(n: int, s: int, R_s: float) -> OddsSequence:
    """Probe sequence with odds R_s/(n-s+1) spread equally over [s, n].

    When R_s > 1 + 1/(n-s) this profile is self-contradictory: the tail
    sum R_{s+1} already exceeds 1, so the actual threshold lands above
    the nominal s.  The sequence is still valid input; it exists so that
    tests can demonstrate the contradiction numerically.
    """
    if not 1 <= s <= n:
        raise InconsistentInput(f"need 1 <= s <= n, got s = {s}, n = {n}")
    if math.isnan(R_s) or R_s < 0.0:
        raise InconsistentInput(f"need R_s >= 0, got {R_s!r}")
    r = R_s / (n - s + 1)
    p = [0.0] * (s - 1) + [odds_to_prob(r)] * (n - s + 1)
    return validate_probabilities(p)


class PriorBounds(NamedTuple):
    e_applicable: bool
    e_value: float
    ai_value: float


def prior_bounds(seq: OddsSequence) -> PriorBounds:
    """The two classical sum-free lower bounds, as bound_report gives them.

    Both require R_1 >= 1: V_n > 1/e, and the sharp
    V_n >= (1 - 1/(n+1))^n (equality at constant p_j = 1/(n+1), the
    Allaart-Islas configuration).
    """
    report = bound_report(seq)
    return PriorBounds(
        e_applicable=report.e_bound_applicable,
        e_value=report.e_bound,
        ai_value=report.allaart_islas,
    )
