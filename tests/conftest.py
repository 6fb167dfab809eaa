import numpy as np
import pytest

from exact_oracle import decimal_window_win
from oddsrule import DPResult, oracle, threshold, validate_probabilities

CORPUS_SEED = 20260810
CORPUS_SIZE = 10_000


@pytest.fixture(scope="session")
def corpus():
    """10^4 random sequences: n uniform in 1..50, p_j uniform in [0, 0.95]."""
    rng = np.random.default_rng(CORPUS_SEED)
    seqs = []
    for _ in range(CORPUS_SIZE):
        n = int(rng.integers(1, 51))
        seqs.append(validate_probabilities(rng.uniform(0.0, 0.95, size=n).tolist()))
    return seqs


@pytest.fixture(scope="session", params=[[0.5], [0.0, 0.3]], ids=["0.5", "0,0.3"])
def large_near_tie(request):
    """A near-tie at n ~ 10^5: ``head + [1/99919] * 99918``.

    The tail's odds sum to within about 1e-12 of 1, and its 99 918 equal
    factors 1 - p repeat one rounding error.  Returns the sequence, its
    threshold and the 60-digit reference value of that threshold's window.
    """
    seq = validate_probabilities(request.param + [1 / 99919] * 99918)
    s = threshold(seq).s
    return seq, s, float(decimal_window_win(seq.p, s))


@pytest.fixture
def dp_off_by_1e_9(monkeypatch):
    """Make ``oracle.dp_optimal_value`` report V_n 1e-9 too high, far
    outside the cross-check tolerance, for the disagreement path."""
    exact = oracle.dp_optimal_value

    def wrong(seq):
        r = exact(seq)
        return DPResult(value=r.value + 1e-9, stop_set=r.stop_set, continuation=r.continuation)

    monkeypatch.setattr(oracle, "dp_optimal_value", wrong)
