"""Independent verification engines for the odds rule.

Five routes to the same numbers, sharing no code with the closed-form
evaluation in :mod:`oddsrule.core`:

* exact backward induction over *all* adapted stopping rules,
* the exact value of every fixed threshold rule,
* Lindley's harmonic-sum threshold of the secretary sequence p_j = 1/j,
* exhaustive enumeration of the outcome vectors the rule wins on
  (n <= 20),
* a seeded Monte Carlo simulator that draws only the rule's window,
  into two buffers it reuses.

Only the last two use numpy, and each imports it when called, so
importing the package (or running a CLI command that needs neither)
does not load numpy.

The three recurrences (backward induction and both threshold-rule
sweeps) never form 1 - p: each step adds a p-weighted difference, as in
Q -= p * Q, so a long run of small p does not repeat the rounding of
1 - p in every factor.

The verdict lives here too: :func:`cross_check` runs the four oracles
that take any sequence and compares each with core's V_n; the
``oracle-check`` command only renders its record.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import OddsSequence, _integer, threshold, win_probability
from .errors import EmptySequence, IndexOutOfRange, InvalidArgument, TooLarge

ORACLE_TOL = 1e-12  # agreement of each exact oracle with V_n
EXHAUSTIVE_MAX_N = 20
MC_CHUNK = 1 << 18  # uniforms per Monte Carlo draw
_FSUM_SLICE = 1 << 12  # weights per tolist() fed to fsum


@dataclass(frozen=True)
class DPResult:
    """Backward-induction solution of the last-success stopping problem.

    ``continuation[k-1]`` is the value V_k of still being in the game
    before observing trial k (V_{n+1} = 0 is appended), satisfying

        V_k = V_{k+1} + p_k * max(Q_{k+1} - V_{k+1}, 0)

    with Q_k the probability of no success in [k, n].  ``stop_set``
    holds the indices where stopping on an observed success is strictly
    better than continuing; on ties the rule continues (stop-late).

    Unlike the package's other records this one stays a frozen dataclass:
    the benchmark's smoke test builds a wrong value with
    ``dataclasses.replace`` on it (ROADMAP item 6).
    """

    value: float
    stop_set: frozenset[int]
    continuation: tuple[float, ...]


class SimulationReport(NamedTuple):
    trials: int
    wins: int
    estimate: float
    std_error: float
    seed: int


def _window_start(k, n: int) -> int:
    k = _integer("k", k)
    if not 1 <= k <= n:
        raise IndexOutOfRange(k, n)
    return k


def dp_optimal_value(seq: OddsSequence) -> DPResult:
    """Optimal success probability over all stopping times, by exact
    backward induction."""
    n = seq.n
    values = [0.0] * (n + 1)  # values[k-1] = V_k, values[n] = V_{n+1} = 0
    stop = []
    q_next = 1.0  # Q_{k+1}
    for k in range(n, 0, -1):
        p_k = seq.p[k - 1]
        v_next = values[k]
        if q_next > v_next:
            stop.append(k)
        values[k - 1] = v_next + p_k * max(q_next - v_next, 0.0)
        q_next -= p_k * q_next
    return DPResult(
        value=values[0], stop_set=frozenset(stop), continuation=tuple(values)
    )


def threshold_rule_value(seq: OddsSequence, k: int) -> float:
    """Exact win probability of "stop at the first success at index >= k".

    Runs the window forward, tracking the probability of zero and of
    exactly one success so far; the rule wins precisely when the window
    [k, n] ends with exactly one success.  Here and in the other oracles,
    a k that is not an integer raises InvalidArgument, one outside [1, n]
    IndexOutOfRange.
    """
    k = _window_start(k, seq.n)
    none = 1.0
    one = 0.0
    for p_j in seq.p[k - 1 :]:
        one += p_j * (none - one)
        none -= p_j * none
    return one


def threshold_rule_values(seq: OddsSequence) -> tuple[float, ...]:
    """Win probability of every threshold rule k = 1..n in one sweep.

    Uses the backward recurrence P_k = P_{k+1} + p_k * (Q_{k+1} - P_{k+1}),
    a different route than :func:`threshold_rule_value`, so the two can
    cross-check each other.
    """
    n = seq.n
    vals = [0.0] * n
    q_next = 1.0
    p_next = 0.0
    for k in range(n, 0, -1):
        p_k = seq.p[k - 1]
        p_next += p_k * (q_next - p_next)
        vals[k - 1] = p_next
        q_next -= p_k * q_next
    return tuple(vals)


def lindley_threshold(n: int) -> int:
    """Classical threshold for the best-choice problem via harmonic sums.

    Returns the k with a_{k-1} >= 1 > a_k where a_k = 1/k + ... + 1/(n-1)
    (empty sum = 0, a_0 = +inf).  Deliberately computed from plain
    left-shifted harmonic sums rather than the odds machinery, so it can
    cross-check ``threshold(secretary_sequence(n))``.
    """
    n = _integer("n", n)
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


def exhaustive_value(seq: OddsSequence, k: int) -> float:
    """Ground-truth win probability of the threshold-k rule by weighting
    the 2^n outcome vectors.

    Each outcome gets probability prod p_j^{I_j} (1-p_j)^{1-I_j}, the
    product taken left to right in trial order.  The rule stops at the
    first success at or after k and wins when no success follows, that
    is, exactly when the window [k, n] holds one success, so only those
    outcomes are enumerated: all 2^(k-1) prefixes, each extended by the
    n-k+1 ways to place the window's one success.  Their weights are
    summed by one math.fsum, which is correctly rounded whatever the
    order, so the result has the bits of summing the winning weights of
    the full enumeration.  Capped at n = 20; the scratch memory is the
    2^(k-1) * (n-k+2) <= 2^20 doubles of two arrays filled in place.
    """
    n = seq.n
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}, got {n}")
    k = _window_start(k, n)
    import numpy as np

    # Prefix outcome i has I_j = bit j of i: each trial doubles the
    # filled part in place, the new upper half being the outcomes with
    # I_j = 1 (written first, from the lower half before it is scaled).
    m = 1 << (k - 1)
    none = np.empty(m)
    none[0] = 1.0
    for j, p_j in enumerate(seq.p[: k - 1]):
        h = 1 << j
        np.multiply(none[:h], p_j, out=none[h : 2 * h])
        none[:h] *= 1.0 - p_j
    # In the window, none holds the weights with no success so far and
    # one, in blocks of m, those with exactly one: block t has its
    # success at trial k + t.  Outcomes with two are never formed.
    one = np.empty(m * (n - k + 1))
    for t, p_j in enumerate(seq.p[k - 1 :]):
        one[: t * m] *= 1.0 - p_j
        np.multiply(none, p_j, out=one[t * m : (t + 1) * m])
        none *= 1.0 - p_j
    # tolist() in slices, so no Python list of all the weights exists
    slices = (one[i : i + _FSUM_SLICE].tolist() for i in range(0, one.size, _FSUM_SLICE))
    return math.fsum(itertools.chain.from_iterable(slices))


def monte_carlo(
    seq: OddsSequence, k: int, trials: int, seed: int
) -> SimulationReport:
    """Simulate the threshold-k rule on sampled indicator vectors.

    A trial is a win when its window [k, n] holds exactly one success,
    so only the window columns p_k..p_n are drawn.  One generator,
    default_rng(seed mod 2^64), fills the trials row by row; it is drawn
    in blocks of about MC_CHUNK uniforms (never more rows than trials),
    into one draw buffer and one hit buffer allocated once, which bounds
    memory and does not change the numbers.  The report is therefore a
    function of (seed, trials, p_k..p_n) alone.  Raises InvalidArgument
    when trials or seed is not an integer, or trials is below 1.
    """
    k = _window_start(k, seq.n)
    trials = _integer("trials", trials)
    seed = _integer("seed", seed)
    if trials < 1:
        raise InvalidArgument(f"need trials >= 1, got {trials}")
    import numpy as np

    window = np.asarray(seq.p[k - 1 :])
    rows = min(max(1, MC_CHUNK // window.size), trials)
    draws = np.empty((rows, window.size))
    hits = np.empty(draws.shape, dtype=bool)
    # the smallest unsigned type that holds the window width counts each
    # row's hits exactly, at one byte a row for windows below 256
    count_type = np.min_scalar_type(window.size)
    rng = np.random.default_rng(seed % (1 << 64))
    wins = 0
    for start in range(0, trials, rows):
        m = min(rows, trials - start)
        rng.random(out=draws[:m])
        np.less(draws[:m], window, out=hits[:m])
        wins += int((hits[:m].sum(axis=1, dtype=count_type) == 1).sum())
    estimate = wins / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimulationReport(
        trials=trials, wins=wins, estimate=estimate, std_error=std_error, seed=seed
    )


class CrossCheck(NamedTuple):
    """``values``: formula (V_n), dp, threshold_family_max, exhaustive
    (None above EXHAUSTIVE_MAX_N) and monte_carlo; ``checks``: whether
    each oracle that ran agrees with V_n; ``agree``: whether all do."""

    s: int
    values: dict[str, float | None]
    simulation: SimulationReport
    checks: dict[str, bool]
    agree: bool


def cross_check(seq: OddsSequence, trials: int, seed: int) -> CrossCheck:
    """Run the oracles at the threshold s of ``seq``.  An exact oracle
    agrees within ORACLE_TOL of V_n (the family's maximum must also be
    attained at s), Monte Carlo within 4 standard errors."""
    t = threshold(seq)
    v = win_probability(seq, t).value
    dp = dp_optimal_value(seq).value
    family = threshold_rule_values(seq)
    best = max(family)
    values = {"formula": v, "dp": dp, "threshold_family_max": best, "exhaustive": None}
    checks = {
        "dp": abs(dp - v) <= ORACLE_TOL,
        "threshold_family": abs(best - v) <= ORACLE_TOL
        and family[t.s - 1] >= best - ORACLE_TOL,
    }
    if seq.n <= EXHAUSTIVE_MAX_N:
        values["exhaustive"] = exhaustive_value(seq, t.s)
        checks["exhaustive"] = abs(values["exhaustive"] - v) <= ORACLE_TOL
    sim = monte_carlo(seq, t.s, trials, seed)
    values["monte_carlo"] = sim.estimate
    # the band is the standard error under the hypothesis p = V_n, not the
    # reported plug-in one, which is 0 when no trial wins
    se = math.sqrt(max(v * (1.0 - v), 0.0) / sim.trials)
    checks["monte_carlo"] = abs(sim.estimate - v) <= 4.0 * se
    return CrossCheck(t.s, values, sim, checks, all(checks.values()))
