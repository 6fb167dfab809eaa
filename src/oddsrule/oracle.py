"""Independent verification engines for the odds rule.

Four routes to the same numbers, sharing no code with the closed-form
evaluation in :mod:`oddsrule.core`:

* exact backward induction over *all* adapted stopping rules,
* the exact value of every fixed threshold rule,
* exhaustive enumeration of the 2^n outcome vectors (small n),
* a seeded Monte Carlo simulator that draws only the rule's window.

Only the last two use numpy, and each imports it when called, so
importing the package (or running a CLI command that needs neither)
does not load numpy.

The three recurrences (backward induction and both threshold-rule
sweeps) never form 1 - p: each step adds a p-weighted difference, as in
Q -= p * Q, so a long run of small p does not repeat the rounding of
1 - p in every factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import OddsSequence
from .errors import IndexOutOfRange, InvalidArgument, TooLarge

EXHAUSTIVE_MAX_N = 20
MC_CHUNK = 1 << 18  # uniforms per Monte Carlo draw


@dataclass(frozen=True)
class DPResult:
    """Backward-induction solution of the last-success stopping problem.

    ``continuation[k-1]`` is the value V_k of still being in the game
    before observing trial k (V_{n+1} = 0 is appended), satisfying

        V_k = V_{k+1} + p_k * max(Q_{k+1} - V_{k+1}, 0)

    with Q_k the probability of no success in [k, n].  ``stop_set``
    holds the indices where stopping on an observed success is strictly
    better than continuing; on ties the rule continues (stop-late).
    """

    value: float
    stop_set: frozenset[int]
    continuation: tuple[float, ...]


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    wins: int
    estimate: float
    std_error: float
    seed: int


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
    [k, n] ends with exactly one success.
    """
    if not 1 <= k <= seq.n:
        raise IndexOutOfRange(k, seq.n)
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


def exhaustive_value(seq: OddsSequence, k: int) -> float:
    """Ground-truth win probability of the threshold-k rule by weighting
    all 2^n outcome vectors.

    Each outcome gets probability prod p_j^{I_j} (1-p_j)^{1-I_j}.  The
    rule stops at the first success at or after k and wins when no
    success follows, that is, exactly when the window [k, n] holds one
    success; the weights of those outcomes are summed exactly.  Capped
    at n = 20, about a million outcomes.
    """
    n = seq.n
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}, got {n}")
    if not 1 <= k <= n:
        raise IndexOutOfRange(k, n)
    import numpy as np

    # Outcome i has I_j = bit j of i: each trial doubles both arrays, the
    # new upper half being the outcomes with I_j = 1.
    weights = np.ones(1)
    successes = np.zeros(1, dtype=np.int8)  # in the window [k, n]
    for j, p_j in enumerate(seq.p):
        weights = np.concatenate((weights * (1.0 - p_j), weights * p_j))
        successes = np.concatenate((successes, successes + (j >= k - 1)))
    return math.fsum(weights[successes == 1].tolist())


def monte_carlo(
    seq: OddsSequence, k: int, trials: int, seed: int
) -> SimulationReport:
    """Simulate the threshold-k rule on sampled indicator vectors.

    A trial is a win when its window [k, n] holds exactly one success,
    so only the window columns p_k..p_n are drawn.  One generator,
    default_rng(seed mod 2^64), fills the trials row by row; it is drawn
    in blocks of about MC_CHUNK uniforms, which bounds memory and does
    not change the numbers.  The report is therefore a function of
    (seed, trials, p_k..p_n) alone.  Raises InvalidArgument when
    trials < 1.
    """
    if not 1 <= k <= seq.n:
        raise IndexOutOfRange(k, seq.n)
    if trials < 1:
        raise InvalidArgument(f"need trials >= 1, got {trials}")
    import numpy as np

    window = np.asarray(seq.p[k - 1 :])
    rows = max(1, MC_CHUNK // window.size)
    rng = np.random.default_rng(int(seed) % (1 << 64))
    wins = 0
    for start in range(0, trials, rows):
        hits = rng.random((min(rows, trials - start), window.size)) < window
        wins += int((hits.sum(axis=1) == 1).sum())
    estimate = wins / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimulationReport(
        trials=trials, wins=wins, estimate=estimate, std_error=std_error, seed=seed
    )
