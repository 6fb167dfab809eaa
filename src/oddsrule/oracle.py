"""Independent verification engines for the odds rule.

Five routes to the same numbers, sharing no code with the closed-form
evaluation in :mod:`oddsrule.core`:

* exact backward induction over *all* adapted stopping rules,
* the exact value of every fixed threshold rule,
* Lindley's harmonic-sum threshold of the secretary sequence p_j = 1/j,
* exhaustive enumeration of the outcome vectors the rule wins on
  (n <= 20),
* a seeded Monte Carlo simulator that draws, for each column of the
  rule's window, the gaps between the trials it succeeds in, so its
  cost follows trials * (p_k + ... + p_n) and its memory is bounded.

The package imports this module on first use of one of its names, so
``import oddsrule`` and the ``analyze``, ``secretary``, ``sweep`` and
``extremal`` commands load neither it nor dataclasses (with inspect, ast
and dis). Only the last two oracles use numpy, and each imports it when
called.

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

from .core import OddsSequence, _integer, _size, threshold, win_probability
from .errors import EmptySequence, IndexOutOfRange, InvalidArgument, TooLarge

ORACLE_TOL = 1e-12  # agreement of each exact oracle with V_n
EXHAUSTIVE_MAX_N = 20
MC_CHUNK = 1 << 16  # gap entries per Monte Carlo block
_MC_SLAB = 1 << 17  # trials whose success counts are held at once
_MC_COLUMNS = 1 << 10  # window columns prepared at once
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
    n = _size("n", n)
    if n < 1:
        raise EmptySequence("need n >= 1")
    # one running sum from a_n = 0 (the empty sum): after adding 1/(k-1)
    # it holds a_{k-1}, so the first k at which it reaches 1 is the answer
    a = 0.0
    for k in range(n, 1, -1):
        a += 1.0 / (k - 1)
        if a >= 1.0:
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


def _main_draws(trials, p):
    """Gaps a column of success probability ``p`` draws from the main
    stream for a slab of ``trials`` trials: m + 6 sqrt(m) + 8 for the mean
    success count m = trials * p, more than 6 standard deviations above
    it, so the gaps rarely end inside the slab.  Takes arrays or scalars."""
    import numpy as np

    m = trials * p
    return (m + 6.0 * np.sqrt(m) + 8.0).astype(np.int64)


def _add_gaps(rng, counts, scale, sizes, last) -> None:
    """Draw ``sizes[i]`` gaps for column i from ``rng``, the columns in
    order, and extend each column's successes from its position
    ``last[i]``: count those inside the slab in ``counts`` (one entry per
    trial) and leave each column's new position in ``last``."""
    import numpy as np

    trials = counts.size
    x = rng.standard_exponential(int(sizes.sum()))
    x *= np.repeat(scale, sizes)
    # G = floor(E / rate) + 1, capped at trials + 1 (past the slab) before
    # the cast
    np.minimum(x, trials, out=x)
    g = x.astype(np.int64)
    del x
    g += 1
    # one cumsum gives every column's positions once its first gap is
    # raised by its position so far and lowered by the sum before it
    drawn = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[drawn])
    starts = ends - sizes[drawn]
    g[starts] += last[drawn]
    g[starts[1:]] -= np.add.reduceat(g, starts)[:-1]
    np.cumsum(g, out=g)
    last[drawn] = g[ends - 1]
    hits = g[g <= trials]
    del g
    hits -= 1
    np.add.at(counts, hits, counts.dtype.type(1))


def _sample_columns(rng, counts, p, columns, key: int, slab: int) -> None:
    """Add to ``counts`` (one entry per trial of the slab) the successes of
    window columns with 0 < p < 1, ``columns`` their window indices.

    The columns' main draws (``_main_draws``) follow each other in
    ``rng``, taken in blocks of at most MC_CHUNK entries; a block may
    split a column.  A column whose gaps end inside the slab continues
    from default_rng([key, slab, column]).
    """
    import numpy as np

    trials = counts.size
    # p below 1e-300 is drawn at 1e-300, so 1/rate and E/rate stay finite
    # (at p = 5e-324 the rate is subnormal); either way a gap reaches
    # trials + 1 unless E < trials * 1e-300
    scale = 1.0 / -np.log1p(-np.maximum(p, 1e-300))
    draws = _main_draws(trials, p)
    ends = np.cumsum(draws)
    starts = ends - draws
    last = np.zeros(p.size, dtype=np.int64)  # each column's position so far
    total = int(ends[-1])
    for lo in range(0, total, MC_CHUNK):
        hi = min(lo + MC_CHUNK, total)
        c0 = int(np.searchsorted(ends, lo, "right"))
        c1 = int(np.searchsorted(starts, hi))
        sizes = np.minimum(ends[c0:c1], hi) - np.maximum(starts[c0:c1], lo)
        _add_gaps(rng, counts, scale[c0:c1], sizes, last[c0:c1])
    for i in np.flatnonzero(last <= trials):
        side = np.random.default_rng([key, slab, int(columns[i])])
        while last[i] <= trials:
            size = max(1, int(_main_draws(trials - last[i], p[i])))
            _add_gaps(side, counts, scale[i : i + 1], np.array([size]), last[i : i + 1])


def monte_carlo(
    seq: OddsSequence, k: int, trials: int, seed: int
) -> SimulationReport:
    """Simulate the threshold-k rule on sampled indicator vectors.

    A trial is a win when its window [k, n] holds exactly one success,
    so only the window columns p_k..p_n are drawn.  In each column the
    trials that succeed form a Bernoulli process over the trial index, so
    the gaps between them are drawn directly as geometric variates,
    G = floor(E / -log1p(-p)) + 1 with E standard exponential (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. 10).  The expected
    number of draws is trials * sum(p_j) plus a margin per column, not
    trials * (n - k + 1); at the threshold that sum is below 2.

    Each trial's successes are counted, saturating at 2; a p = 1 column
    adds 1 to every trial and a p = 0 column draws nothing.  The trials
    run in slabs of at most 2^17 and the window in groups of at most 2^10
    columns, drawn in blocks of at most MC_CHUNK (2^16) gap entries, so
    the scratch memory (about 1.3 MiB) grows with neither trials nor n.

    The stream: one generator, default_rng(seed mod 2^64), gives each
    slab's columns in order a number of draws that depends only on the
    slab size and p_j (``_main_draws``); a column whose gaps end inside
    the slab continues from default_rng([seed mod 2^64, slab, j]), j its
    index in the window.  So the report is a function of (seed, trials,
    p_k..p_n) alone, whatever MC_CHUNK is.  Raises InvalidArgument when
    trials or seed is not an integer, or trials is below 1.
    """
    k = _window_start(k, seq.n)
    trials = _integer("trials", trials)
    seed = _integer("seed", seed)
    if trials < 1:
        raise InvalidArgument(f"need trials >= 1, got {trials}")
    import numpy as np

    key = seed % (1 << 64)
    rng = np.random.default_rng(key)
    # a count reaches at most 2 + _MC_COLUMNS before each saturation
    counts = np.empty(min(trials, _MC_SLAB), dtype=np.uint16)
    wins = 0
    for slab, first in enumerate(range(0, trials, counts.size)):
        c = counts[: min(counts.size, trials - first)]
        c.fill(0)
        for a in range(k - 1, seq.n, _MC_COLUMNS):
            p = np.array(seq.p[a : a + _MC_COLUMNS])
            c += int(np.count_nonzero(p == 1.0))
            live = np.flatnonzero((p > 0.0) & (p < 1.0))
            if live.size:
                _sample_columns(rng, c, p[live], live + (a - k + 1), key, slab)
            np.minimum(c, 2, out=c)
        wins += int(np.count_nonzero(c == 1))
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
