"""Five independent routes to the same number.

The closed-form win probability is checked against a dynamic program
over all stopping rules, a sweep of every fixed threshold rule, bit-level
enumeration of all outcomes, and a seeded Monte Carlo simulation.
"""

import numpy as np

from oddsrule import (
    dp_optimal_value,
    exhaustive_value,
    monte_carlo,
    threshold,
    threshold_rule_values,
    validate_probabilities,
    win_probability,
)

rng = np.random.default_rng(7)
p = rng.uniform(0.05, 0.8, size=9).round(3).tolist()
seq = validate_probabilities(p)
t = threshold(seq)

print("sequence:", p)
print("threshold s =", t.s)

v = win_probability(seq, t).value
dp = dp_optimal_value(seq)
family = threshold_rule_values(seq)
exact = exhaustive_value(seq, t.s)
sim = monte_carlo(seq, t.s, trials=1_000_000, seed=42)

print(f"\nclosed form              {v:.12f}")
print(f"backward induction       {dp.value:.12f}   (diff {abs(dp.value - v):.1e})")
print(f"best fixed threshold     {max(family):.12f}   (diff {abs(max(family) - v):.1e})")
print(f"exhaustive enumeration   {exact:.12f}   (diff {abs(exact - v):.1e})")
print(
    f"monte carlo (10^6)       {sim.estimate:.6f}         "
    f"({abs(sim.estimate - v) / sim.std_error:.2f} standard errors off)"
)

print("\nthe dynamic program stops exactly where the odds rule does:")
print("  dp stop indices ", sorted(dp.stop_set))
print("  odds rule window", list(range(t.s, seq.n + 1)))

print("\nthreshold-rule values peak at k = s:")
for k, value in enumerate(family, start=1):
    bar = "#" * int(round(value * 60))
    mark = " <- s" if k == t.s else ""
    print(f"  k = {k}: {value:.6f} {bar}{mark}")

print("\nsame seed, same answer (one generator, window columns only):")
again = monte_carlo(seq, t.s, trials=1_000_000, seed=42)
print("  rerun wins equal:", again.wins == sim.wins)
