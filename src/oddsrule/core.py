"""Core model for stopping on the last success of independent indicators.

A trial sequence is described by success probabilities ``p_1 .. p_n``.  The
optimal way to stop on the *last* success is an odds rule: convert each
probability to odds ``r_j = p_j / (1 - p_j)``, sum the odds from the back,
and let ``s`` be the largest index where the suffix sum still reaches 1
(or 1 if it never does).  The rule then stops at the first success at
index ``s`` or later, and its success probability is

    V_n = prod_{j=s..n} (1 - p_j) * sum_{l=s..n} r_l.

This module builds the validated sequence (probabilities and odds),
locates the threshold, and evaluates V_n by one formula, with the
odds-ratio form R_s / prod(1 + r_j) attached as a cross-check.  Each
sequence computes its threshold and V_n once, on first use, and builds
the full tuple of suffix sums only when it is read.

All public indices are 1-based, matching the usual mathematical
convention; the tuples stored on the records are ordinary 0-based
Python containers.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from itertools import accumulate, chain, islice, repeat
from typing import NamedTuple, Sequence

from .errors import (
    EmptySequence, InconsistentInput, InvalidArgument, NotANumber, OutOfRange, TooLarge,
)

# |R_l - 1| below this marks the threshold decision as numerically touchy.
BOUNDARY_EPS = 1e-9

# The threshold's float guess reads the running sums of the odds in
# chunks of this many: large enough for C-level passes, small enough
# that a chunk past the first sum >= 1 costs nothing measurable.
GUESS_CHUNK = 1024

# Validation forms the odds of a longer sequence in lists of this many:
# no list of all the odds is then alive beside the tuples of p and r.
ODDS_CHUNK = 1024


class _memo:
    """A method computed once per instance, on first read.

    A non-data descriptor: the value goes into the instance ``__dict__``
    under the method's name, so later reads never reach it.  No lock is
    taken; threads that race on the first read compute equal values and
    the last one stored is kept.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _integer(name: str, x) -> int:
    """x as an int when operator.index accepts it, else InvalidArgument."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {x!r}") from None


def _size(name: str, x) -> int:
    """_integer, and TooLarge when |x| >= sys.maxsize, a length no list
    reaches.  The message gives the bit length, not x: an int of more
    than 4300 digits cannot be formatted."""
    x = _integer(name, x)
    if abs(x) >= sys.maxsize:
        raise TooLarge(f"{name} is an integer of {x.bit_length()} bits; "
                       f"need |{name}| < sys.maxsize")
    return x


def _window(n, s) -> tuple[int, int]:
    """n and s as ints with 1 <= s <= n, else InconsistentInput; TooLarge
    from _size first."""
    n, s = _size("n", n), _size("s", s)
    if not 1 <= s <= n:
        raise InconsistentInput(f"need 1 <= s <= n, got s = {s}, n = {n}")
    return n, s


def _number(name: str, x):
    """x itself when it mixes with floats into a real float (NaN and inf
    are numbers too), else InvalidArgument: a Decimal or a complex raises
    TypeError, an int beyond float range OverflowError."""
    try:
        math.isnan(x + 0.0)
    except (TypeError, OverflowError):
        raise InvalidArgument(f"{name} must be a number, got {x!r}") from None
    return x


def _odds(r) -> None:
    """InconsistentInput for a NaN or negative odds (sum) r, InvalidArgument
    for a non-number; any r >= 0, +inf included, passes."""
    if not _number("R_s", r) >= 0.0:  # False for NaN
        raise InconsistentInput(f"need R_s >= 0, got {r!r}")


def odds_to_prob(r: float) -> float:
    """Probability r/(1+r) of odds r, with inf mapping to 1.

    Raises InconsistentInput for a NaN or negative r, InvalidArgument for
    a non-number.
    """
    _odds(r)
    return _prob(r)


def _prob(r: float) -> float:
    # odds_to_prob without the check, for odds r >= 0 already checked or made
    return 1.0 if r == math.inf else r / (1.0 + r)


class OddsSequence:
    """Validated success probabilities with their odds.

    ``r[j]`` is the odds of entry ``j`` (+inf where p = 1).  ``R[l-1]``
    holds the suffix sum ``R_l = r_l + ... + r_n``: the exact sum of the
    stored odds rounded once to nearest (half to even), +inf when a sure
    success lies at or after ``l``.  ``R`` is built on first read, not at
    validation: the threshold, V_n and the bounds need only the two sums
    at the threshold, which they take from ``math.fsum`` (correctly
    rounded, so the same bits as ``R``).

    The finite sums of ``R`` are exact integer sums on one binary grid.
    Let ``e_min`` and ``e_max`` be the ``math.frexp`` exponents of the
    smallest nonzero and the largest finite odds, and ``K = 53 - e_min``:
    every finite odds, subnormal or not, is a multiple of
    ``2**(e_min - 53)``, so it is an integer in units of ``2**-K``.  A guard
    chooses only how the odds are scaled and the totals rounded:

    * if ``e_min >= -1021`` (no odds is subnormal) and ``e_max - e_min +
      L.bit_length() <= 970`` for the ``L`` finite entries, every scaled
      odds and every running total is below ``2**1023``, so
      ``int(ldexp(x, K))`` is exact and ``ldexp(float(total), -K)`` is the
      correctly rounded ``total / 2**K``: ``float(int)`` rounds half to
      even, and scaling a normal result by a power of two is exact;
    * otherwise each odds's 53-bit ``frexp`` mantissa is shifted onto the
      grid, and int true division by ``2**(K - 900)`` (a shorter divisor
      than ``2**K``, so a faster division) rounds each total correctly to
      a double below ``2**1017``, as a sum is below ``2**117``.  Scaling
      that by ``2**-900`` is exact, also for a subnormal sum: a multiple
      of ``2**-1074`` below ``2**-1022`` has at most 52 bits, so its
      division was exact too.

    Instances are immutable: assigning or deleting an attribute raises
    AttributeError.  ``R``, the threshold and V_n are memos filled on
    first use in the instance ``__dict__``, not fields, so ``==``,
    ``hash``, ``repr`` and pickle see only ``p`` and ``r``.  Instances are
    safe to share between threads: no lock is taken, and threads that
    race to fill a memo compute equal values, not necessarily the
    identical object.  Construct them via :func:`validate_probabilities`.
    """

    p: tuple[float, ...]
    r: tuple[float, ...]

    def __init__(self, p: tuple[float, ...], r: tuple[float, ...]):
        fields = self.__dict__
        fields["p"] = p
        fields["r"] = r

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: OddsSequence is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: OddsSequence is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p!r}, r={self.r!r})"

    def __reduce__(self):
        # the memos stay behind: a copy fills its own on first use
        return type(self), (self.p, self.r)

    @property
    def n(self) -> int:
        return len(self.p)

    @_memo
    def R(self) -> tuple[float, ...]:
        # Exact sums from the right, each rounded once: the bits of
        # _suffix_sum, on which the threshold compares R_l >= 1.  A sure
        # success's +inf makes its own and every earlier sum inf; the
        # finite tail after the last one is summed on one exact grid.
        odds = self.r
        try:
            stop = len(odds) - operator.indexOf(reversed(odds), math.inf)
        except ValueError:  # no sure success
            stop = 0
        sums = _suffix_sums(odds, stop)
        sums[:0] = [math.inf] * stop
        return tuple(sums)

    @_memo
    def _threshold(self) -> tuple[ThresholdResult, float]:
        # The threshold and R_{s+1} (0.0 at s = n).  R_l >= 1 holds for
        # l <= s and fails after, so a float running sum from the back
        # guesses s and correctly rounded probes of R_l search from it.
        r, n = self.r, len(self.r)

        # The guess is where the running sum first reaches 1 (0: never).
        # Adding odds >= 0 never lowers a rounded sum, so the running sums
        # are sorted and are bisected for 1 a chunk at a time.
        running, below = accumulate(reversed(r)), 0
        while chunk := list(islice(running, GUESS_CHUNK)):
            below += bisect.bisect_left(chunk, 1.0)
            if chunk[-1] >= 1.0:
                break
        guess = n - below
        # s is in [lo, hi): lo is 1 or has R_lo >= 1, and R_hi < 1.  The
        # first probe is at the guess, the next at base + step after a
        # pass and base - step after a fail, the step doubling, and at the
        # midpoint wherever that is not inside the bracket: none repeats.
        # Below 2 the search starts as if l = base = 1 had passed, so R_1
        # is summed only when s = 1, since nothing else needs it.
        lo, hi, R_lo, R_hi = 1, n + 1, 0.0, 0.0
        base, l, step = (guess, guess, 1) if guess > 1 else (1, 2, 2)
        while hi - lo > 1:
            if not lo < l < hi:
                l = (lo + hi) // 2
            x = _suffix_sum(r, l)
            if x >= 1.0:
                lo, R_lo, l = l, x, base + step
            else:
                hi, R_hi, l = l, x, base - step
            step *= 2
        s = lo
        R_s = R_lo if s > 1 else _suffix_sum(r, 1)
        # abs(inf - 1.0) is never below BOUNDARY_EPS: inf needs no test
        boundary = abs(R_s - 1.0) < BOUNDARY_EPS or abs(R_hi - 1.0) < BOUNDARY_EPS
        return ThresholdResult(s, R_s, boundary), R_hi

    @_memo
    def _win_probability(self) -> WinProbability:
        t, R_next = self._threshold
        s, p_s = t.s, self.p[t.s - 1]
        # The window is read in place: fsum is correctly rounded, so it may
        # read from the back; a product's bits depend on order, so it reads
        # forward.
        after = islice(reversed(self.p), len(self.p) - s)
        survive = math.exp(math.fsum(map(math.log1p, map(operator.neg, after))))
        value = survive * (p_s + (1.0 - p_s) * R_next)
        product_form = None
        if p_s != 1.0:
            window = islice(self.r, s - 1, None)
            product_form = t.R_s / math.prod(map(operator.add, repeat(1.0), window))
        return WinProbability(value, product_form)


class ThresholdResult(NamedTuple):
    """Threshold index ``s`` plus the suffix odds sum at ``s``.

    ``boundary_flag`` warns that some finite suffix sum sits within 1e-9
    of 1, where the (exact, epsilon-free) comparison deciding ``s`` is
    sensitive to last-ulp rounding of the inputs.
    """

    s: int
    R_s: float
    boundary_flag: bool


class WinProbability(NamedTuple):
    """Success probability of the odds rule.

    ``value`` is V_n, finite and correct also when p_s = 1.
    ``product_form`` is the odds-ratio evaluation R_s / prod(1 + r_j),
    present only when p_s < 1 (the only place a threshold window can
    hold a sure success).
    """

    value: float
    product_form: float | None


def _suffix_sum(odds: tuple[float, ...], l: int) -> float:
    # R_l, with R_{n+1} = 0.  fsum is correctly rounded (half to even), so
    # these are the bits of R[l-1] in any order, and the tail is read in
    # place from the back; + 0.0 turns an all-zero tail's sum into +0.0,
    # as in R, whatever sign of zero fsum returns.
    return math.fsum(islice(reversed(odds), len(odds) - l + 1)) + 0.0


def _suffix_sums(odds: tuple[float, ...], stop: int) -> list[float]:
    # Suffix sums of the finite tail odds[stop:]: exact integer totals on
    # the grid that OddsSequence describes, accumulated from the back and
    # each rounded once.  The tail is read in place and the totals are
    # streamed: a list of them would hold n big ints at once.
    size = len(odds) - stop
    e_min = math.frexp(min(filter(None, islice(odds, stop, None)), default=0.0))[1]
    e_max = math.frexp(max(islice(odds, stop, None), default=0.0))[1]
    K, tail = 53 - e_min, islice(reversed(odds), size)
    if e_min >= -1021 and e_max - e_min + size.bit_length() <= 970:
        totals = accumulate(map(int, map(math.ldexp, tail, repeat(K))))
        sums = list(map(math.ldexp, map(float, totals), repeat(-K)))
    else:
        totals = accumulate(int(m * 2.0**53) << e - e_min for m, e in map(math.frexp, tail))
        rounded = map(operator.truediv, totals, repeat(1 << K - 900))
        sums = list(map(math.ldexp, rounded, repeat(-900)))
    sums.reverse()
    return sums


def validate_probabilities(p: Sequence[float]) -> OddsSequence:
    """Check p_1..p_n and materialize their odds; the suffix sums ``R``
    are built when first read.

    Raises EmptySequence for n = 0, NotANumber / OutOfRange (with the
    offending 1-based index) for bad entries, including entries float()
    rejects: OutOfRange for a number beyond float range such as 10**400,
    NotANumber for anything else (None, a complex, a non-numeric string).
    An entry float() rejects is named first, wherever it is, then the
    first entry outside [0, 1].  InvalidArgument for a str, bytes or
    bytearray ``p`` (not read as entries), a set or frozenset (it has no
    order), an iterator (it can be read only once) or a ``p`` that is not
    iterable (a number, None).

    ``p`` is read once, into the tuple of its floats, and the odds come
    from that tuple.  Only an entry float() rejects makes ``p`` be walked
    again, to name it; if that walk finds none, ``p`` changed while it
    was read, and InvalidArgument is raised.
    """
    try:
        refused = isinstance(p, (str, bytes, bytearray, set, frozenset)) or iter(p) is p
    except TypeError:
        refused = True
    if refused:
        raise InvalidArgument(f"need a sequence of probabilities, got {type(p).__name__}")
    try:
        probs = tuple(map(float, p))
    except (OverflowError, TypeError, ValueError):
        _raise_unreadable(p)
        raise InvalidArgument("p changed while it was read") from None
    n = len(probs)
    if not n:
        raise EmptySequence("need at least one probability")
    # A longer sequence streams its chunks of odds into an r allocated once.
    try:
        if n <= ODDS_CHUNK:
            odds = tuple(_odds_of(probs))
        else:
            entries = iter(probs)
            chunks = (_odds_of(islice(entries, ODDS_CHUNK)) for _ in range(0, n, ODDS_CHUNK))
            odds = tuple(_Sized(chain.from_iterable(chunks), n))
    except KeyError:
        # an entry outside [0, 1) missed _SURE: name the first outside [0, 1]
        for i, x in enumerate(probs, 1):
            if not 0.0 <= x <= 1.0:
                bad = NotANumber if math.isnan(x) or math.isinf(x) else OutOfRange
                raise bad(i, x) from None
    return OddsSequence(probs, odds)


_SURE = {1.0: math.inf}


def _odds_of(probs) -> list[float]:
    # The range check rides in the odds pass: _SURE holds the odds of a
    # sure success, and any other entry outside [0, 1) misses it.
    return [x / (1.0 - x) if 0.0 <= x < 1.0 else _SURE[x] for x in probs]


class _Sized:
    # An iterator with a length hint, so that tuple() allocates its final
    # size once: from a bare iterator it grows the tuple a quarter at a
    # time, past that size while the tuple of p is alive beside it.

    __slots__ = ("items", "n")

    def __init__(self, items, n: int):
        self.items, self.n = items, n

    def __iter__(self):
        return self.items

    def __length_hint__(self) -> int:
        return self.n


def _raise_unreadable(p: Sequence[float]) -> None:
    # p is a sequence, so it can be walked again to name the first entry
    # float() rejects.
    for i, x in enumerate(p, 1):
        try:
            float(x)
        except OverflowError:
            raise OutOfRange(i, x) from None
        except (TypeError, ValueError):
            raise NotANumber(i, x) from None


def threshold(seq: OddsSequence) -> ThresholdResult:
    """Largest l with R_l >= 1, or 1 when no suffix sum reaches 1.

    The comparison is exact IEEE >= on the correctly rounded R_l, no
    epsilon; ``boundary_flag`` is the advertised sensitivity warning.  s
    is guessed where a float running sum of the odds from the back first
    reaches 1, and found by one bracket search from the guess whose
    probes are ``math.fsum`` of the tail: the tails at s and s + 1 for a
    right guess, at most 2*ceil(log2 n) + 4 in all, none twice, R_1 only
    when s = 1, and ``seq.R`` is not built.  R does not increase with l,
    so the finite sums closest to 1 are R_s and R_{s+1}: only those two
    decide the flag.  Computed once per sequence; threads that race on
    the first call get equal results, not necessarily the identical
    object.
    """
    return seq._threshold[0]


def win_probability(seq: OddsSequence, t: ThresholdResult) -> WinProbability:
    """Success probability of the odds rule at the threshold of ``seq``.

    ``value`` is prod_{j>s} (1 - p_j) * (p_s + (1 - p_s) * R_{s+1}), with
    R_{n+1} = 0 and the product taken as exp(fsum(log1p(-p_j))).  At the
    threshold R_{s+1} < 1, so no later p_j is 1 and the product lies in
    [1/e, 1]; a sure success at p_s needs no special case.
    ``product_form`` is the odds-ratio cross-check R_s / prod(1 + r_j),
    None when p_s = 1.  R_s and R_{s+1} come from the threshold's memo;
    ``seq.R`` is not built.  Computed once per sequence.

    Raises InvalidArgument when ``t.s`` is not an integer (``operator.index``
    refuses it) or is not the threshold of ``seq``; the value of any other
    threshold rule is ``oracle.threshold_rule_value``.
    """
    s = _integer("s", t.s)
    if s != seq._threshold[0].s:
        raise InvalidArgument(f"s = {s} is not the threshold, s = {seq._threshold[0].s}")
    return seq._win_probability


def secretary_sequence(n: int) -> OddsSequence:
    """Record-indicator probabilities p_j = 1/j for a random permutation.

    The j-th item of a uniformly random ranking is a running best with
    probability exactly 1/j, independently across j; stopping on the last
    running best recovers the classical best-choice problem.
    """
    n = _size("n", n)
    if n < 1:
        raise EmptySequence("secretary sequence needs n >= 1")
    p = [1.0] * n  # sized in one step: a length memory cannot hold fails here
    p[1:] = [1.0 / j for j in range(2, n + 1)]
    return validate_probabilities(p)
