"""How tightly n, s and R_s pin down the success probability.

The win probability of the odds rule always sits in a narrow window:
below R_s/(1+R_s), and above a case-dependent floor.  Each bound is
attained by an explicit sequence, so none of them can be improved.
"""

import math

from oddsrule import (
    bound_report,
    corollary_bound,
    threshold,
    validate_probabilities,
    win_probability,
)

examples = {
    "single shot":       [0, 0, 0.5, 0, 0],
    "constant fifth":    [0.2, 0.2, 0.2, 0.2],
    "front-loaded":      [0.9, 0.3, 0.05, 0.05],
    "thin and long":     [0.08] * 18,
    "record indicators": [1 / j for j in range(1, 11)],
}

print(f"{'sequence':18} {'s':>3} {'R_s':>8} {'lower':>10} {'V_n':>10} {'upper':>10}  case")
for name, p in examples.items():
    seq = validate_probabilities(p)
    rep, t = bound_report(seq), threshold(seq)
    rs = "inf" if math.isinf(t.R_s) else f"{t.R_s:.4f}"
    marks = []
    if rep.equality["upper"]:
        marks.append("upper attained")
    if rep.equality["lower"]:
        marks.append("lower attained")
    print(
        f"{name:18} {t.s:>3} {rs:>8} {rep.lower:>10.6f} {rep.v_n:>10.6f} "
        f"{rep.upper:>10.6f}  {rep.lower_case}"
        + (f"  <- {', '.join(marks)}" if marks else "")
    )

# When the suffix sum at the threshold is exactly 1, everything
# collapses into a half-width window around the classical constants:
# 1/e < (1+1/n)^-n <= lower <= V_n <= 1/2.
print("\n--- the unit-sum squeeze ---")
# odds 1/2 + 1/4 + 1/5 + 1/20 = 1; the head carries a one-ulp nudge so
# the *derived* floating-point sum lands on 1.0 exactly
p = [0.0, math.nextafter(1 / 3, 1.0), 0.2, 1 / 6, 1 / 21]
seq = validate_probabilities(p)
t = threshold(seq)
v = win_probability(seq, t).value
print(f"R_s = {t.R_s}, s = {t.s}")
print(f"1/e = {math.exp(-1):.6f} < V_n = {v:.6f} <= 1/2")

# The sum-free floor improves as the threshold moves later: knowing only
# that the rule starts at s already guarantees more.
print("\n--- the floor rises with s (n = 12) ---")
for s in range(1, 13):
    print(f"  s = {s:2d}: guaranteed at least {corollary_bound(12, s):.6f}")
print("at s = n the floor is 1/2: one trial left, its odds at least even it out")
