"""Sharp bounds on the odds rule's success probability.

Given the threshold index s and the suffix odds sum R_s, the success
probability V_n is pinned between

    upper:  R_s / (1 + R_s)

and a lower bound that depends on where R_s falls:

    case 1 (R_s < 1, forces s = 1):   R_1 * (1 + R_1/n)^(-n)
    case 2 (1 <= R_s <= 1 + 1/(n-s)): (1 + 1/(n-s+1))^(-(n-s+1))
    case 3 (R_s > 1 + 1/(n-s)):       (1 + 1/(n-s))^(-(n-s)), strict

The case is decided exactly on the given double R_s, not on a rounded
1 + 1/(n-s).  Every bound is attained (cases 1-2 and the upper bound
exactly, case 3 in the limit); see :mod:`oddsrule.extremal` for the
attaining sequences.
:func:`bound_report` also reports two older sum-free bounds for
comparison: V_n > 1/e and V_n >= (1 - 1/(n+1))^n (equality at constant
p_j = 1/(n+1), the Allaart-Islas configuration), both valid once the
full odds sum reaches 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import OddsSequence, _odds, _prob, _window, odds_to_prob
from .errors import InconsistentInput, InternalBoundViolation

# Slack for "bound satisfied" checks and tolerance for equality detection.
# Exact-equality configurations round to either side of their bound by a
# few ulps, so a strict IEEE comparison would misfire.
EQUALITY_TOL = 1e-12

E_BOUND = math.exp(-1.0)


class LowerBound(NamedTuple):
    case: int
    value: float
    strict: bool


def _decay(R: float, m: int) -> float:
    """R * (1 + R/m)^(-m): case 1 at (R_1, n); at R = 1.0 the value of
    cases 2 and 3, the corollary and (at m = n) the Allaart-Islas floor,
    decreasing in m toward 1/e from above.

    Evaluated as R * exp(-m*log1p(R/m)) to dodge cancellation at large m.
    The callers pass m >= 1: integer n and s with 1 <= s <= n, and m = n - s
    only when s < n.
    """
    return R * math.exp(-m * math.log1p(R / m))


def upper_bound(R_s: float) -> float:
    """R_s / (1 + R_s); 1 when the suffix sum is infinite.

    Raises InconsistentInput for a NaN or negative R_s, InvalidArgument
    for a non-number.
    """
    return odds_to_prob(R_s)


def lower_bound(n: int, s: int, R_s: float) -> LowerBound:
    """Case-dispatched lower bound on V_n.

    Case 1 applies for R_s < 1 (only consistent with s = 1); case 2 on
    the closed interval [1, 1 + 1/(n-s)]; case 3 strictly above it.  The
    double R_s is compared with the real 1 + 1/(n-s) exactly.  At s = n
    the separating value 1 + 1/(n-s) is +inf, so case 2 absorbs every
    R_s >= 1.  A non-integer n or s, or a non-number R_s, raises
    InvalidArgument; an n or s of magnitude sys.maxsize or more, TooLarge;
    a NaN or negative R_s, InconsistentInput.
    """
    n, s = _window(n, s)
    _odds(R_s)
    if R_s < 1.0 and s > 1:
        raise InconsistentInput(
            f"R_s = {R_s!r} < 1 contradicts threshold s = {s} > 1"
        )
    return _lower(n, s, R_s)


def _lower(n: int, s: int, R_s: float) -> LowerBound:
    # lower_bound unchecked: 1 <= s <= n, R_s >= 0, R_s >= 1 if s > 1.  Case 3,
    # R_s > 1 + 1/m, is decided exactly: int and Fraction arithmetic is exact,
    # and for a double R_s in [1, 2], R_s - 1 is k * 2**-52 with k <= 2**52, so
    # its product with m is exact while k*m <= 2**53 and at least 2 beyond.
    if R_s < 1.0:
        return LowerBound(1, _decay(R_s, n), False)
    m = n - s
    if m and (R_s > 2 or (R_s - 1) * m > 1):
        return LowerBound(3, _decay(1.0, m), True)
    return LowerBound(2, _decay(1.0, m + 1), False)


def corollary_bound(n: int, s: int) -> float:
    """Lower bound using only n and s: (1 + 1/(n-s+1))^(-(n-s+1)).

    Needs no knowledge of R_s; valid whenever s >= 2 (then R_s >= 1 is
    automatic).  At s = 1 it equals the case-2 value and is reported for
    reference, with applicability labelled separately.
    """
    n, s = _window(n, s)
    return _decay(1.0, n - s + 1)


class BoundReport(NamedTuple):
    """What bound_report decides for one sequence: every bound's value,
    the lower bound's case, applicability and equality flags (tolerance
    EQUALITY_TOL), and the V_n they were checked against.

    The threshold and the odds-ratio form are not copied here: read them
    from threshold(seq) and win_probability(seq, t).  No bound is ever
    reported as violated: a violation raises InternalBoundViolation,
    since by the theory it can only mean a bug.
    """

    v_n: float
    upper: float
    lower: float
    lower_case: int
    lower_strict: bool
    corollary: float
    corollary_applicable: bool
    e_bound_applicable: bool
    e_bound: float
    allaart_islas: float
    equality: dict[str, bool]


def bound_report(seq: OddsSequence) -> BoundReport:
    """Evaluate every bound against V_n and assert all hold; the formulas
    run unchecked on the threshold's own s and R_s."""
    s, R_s, _ = seq._threshold[0]
    n = len(seq.p)
    v = seq._win_probability.value
    up = _prob(R_s)
    low = _lower(n, s, R_s)
    cor = _decay(1.0, n - s + 1)
    corollary_applicable = s >= 2
    e_bound_applicable = R_s >= 1.0  # the same boolean as R_1 >= 1
    allaart_islas = _decay(1.0, n)  # (1 - 1/(n+1))^n = (1 + 1/n)^(-n)

    # One row per bound, in report order: (bound id, value, applies).
    # Only the upper bound holds V_n from above, and V_n > 1/e is never
    # attained, so one_over_e gets no equality flag.
    table = (
        ("upper", up, True),
        ("lower", low.value, True),
        ("corollary", cor, corollary_applicable),
        ("one_over_e", E_BOUND, e_bound_applicable),
        ("allaart_islas", allaart_islas, e_bound_applicable),
    )
    equality = {}
    for bound_id, value, applies in table:
        if not applies:
            continue
        ok = v <= value + EQUALITY_TOL if bound_id == "upper" else v >= value - EQUALITY_TOL
        if not ok:
            raise InternalBoundViolation(bound_id, v, value)
        if bound_id != "one_over_e":
            equality[bound_id] = abs(v - value) <= EQUALITY_TOL

    # in field order: binding 11 keywords would cost more than the tuple
    return BoundReport(
        v, up, low.value, low.case, low.strict, cor, corollary_applicable,
        e_bound_applicable, E_BOUND, allaart_islas, equality,
    )
