"""Independent verification engines for the odds rule.

Five routes to the same numbers, sharing no code with the closed-form
evaluation in :mod:`oddsrule.core`:

* exact backward induction over *all* adapted stopping rules,
* the exact value of every fixed threshold rule,
* Lindley's harmonic-sum threshold of the secretary sequence p_j = 1/j,
* exhaustive enumeration of the outcome vectors the rule wins on
  (n <= 20), streamed through slices of at most 2^16 weights and summed
  exactly by exponent buckets,
* a seeded Monte Carlo simulator that carries the counts of trials
  with no and with one success through the rule's window, two binomial
  draws a column, so neither its cost nor its memory grows with trials.

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
_SLICE_BITS = 16  # exhaustive_value sums at most 2^16 weights at a time
_HI_MASK = (1 << 64) - (1 << 26)  # a double's bits but the low 26


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
    p = seq.p
    values = [0.0] * (n + 1)  # values[k-1] = V_k, values[n] = V_{n+1} = 0
    stop = []
    q_next = 1.0  # Q_{k+1}
    v_next = 0.0  # V_{k+1}
    for k in range(n, 0, -1):
        p_k = p[k - 1]
        if q_next > v_next:
            stop.append(k)
            v_next += p_k * (q_next - v_next)
        # else V_k = V_{k+1} + p_k * 0.0, which is V_{k+1} as that is never -0.0
        values[k - 1] = v_next
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
    outcomes are enumerated (:func:`_winning_weights`): all 2^(k-1)
    prefixes, each extended by the n-k+1 ways to place the window's one
    success.  Their weights are summed exactly and rounded once
    (:func:`_exact_sum`, the bits of math.fsum), so the result has the
    bits of summing the winning weights of the full enumeration in any
    order.  Capped at n = 20; the weights stream through slices of at
    most 2^16, so the scratch memory is a few such arrays (under 3 MiB)
    whatever k is.
    """
    n = seq.n
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}, got {n}")
    k = _window_start(k, n)
    import numpy as np

    return _exact_sum(_winning_weights(seq.p, k, np), np)


def _winning_weights(p, k: int, np):
    """Yield the weights of the outcomes with one success in the window
    [k, n], in slices of at most 2^16 (one array, rewritten in place for
    each slice).

    The first J prefix trials, J = min(k - 1, 16 - (w - 1).bit_length())
    for the window width w = n - k + 1, are built once: prefix outcome i
    has I_j = bit j of i, and each trial doubles the filled part in
    place, the new upper half being the outcomes with I_j = 1 (written
    first, from the lower half before it is scaled).  Each setting of the
    other prefix trials scales those 2^J weights by its factors in trial
    order, and a (w, 2^J) slice takes the window a column at a time: row
    t gets p_j at column t, its one success, and 1 - p_j elsewhere.  So
    every weight is the left-to-right product in trial order.
    """
    w = len(p) - k + 1
    j0 = min(k - 1, _SLICE_BITS - (w - 1).bit_length())
    size = 1 << j0
    rest = p[j0 : k - 1]
    # one allocation for the call, not one per slice (fresh blocks were
    # returned to the OS and faulted in again for every slice): the
    # slice's w rows, the 2^J base weights and, when other prefix trials
    # scale them, a copy of those
    scratch = np.empty((w + 1 + (len(rest) > 0)) * size)
    weights = scratch[: w * size]
    rows = weights.reshape(w, size)
    base = scratch[w * size : (w + 1) * size]
    prefix = scratch[(w + 1) * size :] if rest else base
    base[0] = 1.0
    for j, p_j in enumerate(p[:j0]):
        h = 1 << j
        np.multiply(base[:h], p_j, out=base[h : 2 * h])
        base[:h] *= 1.0 - p_j
    # columns[t][r]: the factor of window trial k + t in row r
    p_window = np.array(p[k - 1 :])
    columns = np.repeat(1.0 - p_window, w).reshape(w, w)
    columns.flat[:: w + 1] = p_window
    columns = columns[:, :, None]
    for bits in range(1 << len(rest)):
        scaled = base
        for i, p_j in enumerate(rest):
            np.multiply(scaled, p_j if bits >> i & 1 else 1.0 - p_j, out=prefix)
            scaled = prefix
        np.multiply(scaled, columns[0], out=rows)
        for column in columns[1:]:
            rows *= column
        yield weights


def _exact_sum(slices, np) -> float:
    """Correctly rounded sum of the nonnegative finite doubles in the
    float64 arrays of ``slices``, each of fewer than 2^26: the bits
    math.fsum returns on all of them, +0.0 for a zero sum included.

    The sum is bucketed on the exponent bits (Malcolm, CACM 14, 1971).
    A weight's top 12 bits, shifted down, are its biased exponent E with
    the sign bit, so -0.0 lands in bucket 2048.  Masking its low 26
    significand bits gives hi, and lo = x - hi is exact.  In bucket E,
    hi is an integer below 2^27 in units of 2^(E-1049) (2^-1048 for the
    subnormals, E = 0) and lo one below 2^26 in units of 2^26 times
    less, so each array's per-bucket sums of hi and of lo (np.bincount)
    are exact.  Those bucket totals are doubles whose exact sum is that
    of the weights, and one math.fsum over the nonzero ones rounds it
    once, half to even.
    """
    sums = []
    scratch = np.empty((2, 0), np.uint64)  # reused by each slice that fits
    for x in slices:
        bits = x.view(np.uint64)
        if scratch.shape[1] < bits.size:
            scratch = np.empty((2, bits.size), np.uint64)
        exponent, part = scratch[:, : bits.size]
        np.right_shift(bits, 52, out=exponent)
        np.bitwise_and(bits, _HI_MASK, out=part)
        exponent = exponent.view(np.int64)
        part = part.view(np.float64)
        sums.append(np.bincount(exponent, part))
        np.subtract(x, part, out=part)
        sums.append(np.bincount(exponent, part))
    sums = np.concatenate(sums)
    return math.fsum(sums[sums > 0.0].tolist())


def monte_carlo(
    seq: OddsSequence, k: int, trials: int, seed: int
) -> SimulationReport:
    """Simulate the threshold-k rule on sampled indicator vectors.

    A trial is a win when its window [k, n] holds exactly one success,
    so only the window columns p_k..p_n are drawn.  The trials are i.i.d.
    and so exchangeable: the win count depends only on how many trials
    have no success so far (``none``) and how many exactly one (``one``).
    In column j, Binomial(one, p_j) of the latter reach a second success
    and Binomial(none, p_j) of the former their first, so the counts have
    the law they would have if every trial's indicators were drawn, and
    the wins are the final ``one``.

    Each nonzero column costs two binomial draws, whatever ``trials`` is,
    and the scratch memory is constant: the window is read in place.  The
    draws come from one generator, default_rng(seed mod 2^64), in column
    order, so the report is a function of (seed, trials, p_k..p_n) alone.
    Raises InvalidArgument when trials or seed is not an integer, or
    trials is below 1, and TooLarge when trials is sys.maxsize or more.
    """
    k = _window_start(k, seq.n)
    trials = _size("trials", trials)
    seed = _integer("seed", seed)
    if trials < 1:
        raise InvalidArgument(f"need trials >= 1, got {trials}")
    import numpy as np

    binomial = np.random.default_rng(seed % (1 << 64)).binomial  # returns an int
    none, one = trials, 0
    for p_j in itertools.islice(seq.p, k - 1, None):
        if p_j > 0.0:
            two = binomial(one, p_j)
            first = binomial(none, p_j)
            none -= first
            one += first - two
    wins = one
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
