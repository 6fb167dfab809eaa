"""Exception types shared across the package."""


class OddsRuleError(Exception):
    """Base class for all errors raised by this package."""


class EmptySequence(OddsRuleError):
    """A probability sequence must contain at least one entry."""


class OutOfRange(OddsRuleError):
    """A probability fell outside [0, 1].  Carries the 1-based index."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        try:
            shown = repr(value)
        except ValueError:  # an int longer than the interpreter prints
            shown = f"an integer of {value.bit_length()} bits"
        super().__init__(f"p_{index} = {shown} is outside [0, 1]")


class NotANumber(OddsRuleError):
    """A probability was NaN or infinite.  Carries the 1-based index."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"p_{index} = {value!r} is not a finite number")


class InconsistentInput(OddsRuleError):
    """Parameters contradict each other (e.g. a threshold above 1 with a
    suffix odds sum below 1, which the threshold definition rules out)."""


class IndexOutOfRange(OddsRuleError):
    """A 1-based sequence index fell outside [1, n]."""

    def __init__(self, index: int, n: int):
        self.index = index
        self.n = n
        super().__init__(f"index {index} is outside [1, {n}]")


class InvalidArgument(OddsRuleError, ValueError):
    """An argument lies outside the function's domain: an oracle's k,
    trials or seed that is not an integer, trials < 1, an n or s that is
    not an integer (bounds, extremal generators, secretary_sequence,
    lindley_threshold), or a ThresholdResult whose s is not an integer or
    not the threshold of the sequence."""


class TooLarge(OddsRuleError):
    """The request exceeds a hard size cap: the exhaustive oracle's n, an
    n or s of magnitude sys.maxsize or more, a length no list reaches, or
    Monte Carlo trials as large, beyond numpy's int64 binomial counts."""


class InternalBoundViolation(OddsRuleError):
    """A proven bound failed numerically: this signals a bug in the
    package, never a property of the input."""

    def __init__(self, bound_id: str, v_n: float, bound_value: float):
        self.bound_id = bound_id
        self.v_n = v_n
        self.bound_value = bound_value
        super().__init__(
            f"bound '{bound_id}' violated: V_n = {v_n!r} vs bound = {bound_value!r}"
        )
