"""
Cliques recolor like coupon collecting
======================================

On the complete graph every vertex must end up with a private color, so a
run from a random start behaves like collecting n distinct coupons with
n-sided dice: n*H_n expected draws in total.
"""

from fractions import Fraction

from decolor import (
    ExperimentConfig,
    UNIFORM_ORDER,
    exact_expected_recolorings_dc,
    gen_clique,
    harmonic,
    run_trials,
    sweep,
    sweep_to_csv,
)

# exact chain solves for the two smallest interesting cliques
for n in (3, 4):
    value = exact_expected_recolorings_dc(gen_clique(n), n, None, UNIFORM_ORDER)
    target = Fraction(n) * harmonic(n).value - n
    print(f"K{n}: exact post-start draws = {value}  (n*H_n - n = {target})")

# Monte Carlo on K8: the mean lands on 8*H8 = 21.7428...
cfg = ExperimentConfig(
    graph={"kind": "clique", "n": 8}, algorithm="dc", D=8,
    trials=50_000, master_seed=8,
)
s = run_trials(cfg).stats["total_draws"]
print(f"\nK8, 50k trials: mean total draws {s.mean:.4f} +- {s.se:.4f}"
      f"  target {float(8 * harmonic(8).value):.4f}")

# growth across n: totals track n*H_n, so mean/(n*H_n) hovers around 1
rows = sweep(
    ExperimentConfig(graph={"kind": "clique", "n": 4}, algorithm="dc",
                     trials=20_000, master_seed=11),
    "graph.n", [4, 8, 16],
)
print("\n" + sweep_to_csv(rows))
for r in rows:
    ratio = r.mean / (r.n * float(harmonic(r.n).value))
    print(f"n={r.value}: mean / (n*H_n) = {ratio:.4f}")
