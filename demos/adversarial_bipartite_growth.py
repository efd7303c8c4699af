"""
A rigged bipartite start forces quadratic total work
====================================================

Color the whole left side of K_{d,d} the same as one right vertex and give
each left vertex exactly one free color. Clearing the left side then costs
about D draws per vertex, so the total grows like d^2 even though a fresh
random start would finish in near-linear time.
"""

from decolor import (
    ExperimentConfig,
    bad_bipartite_start,
    exact_expected_recolorings_persistent,
    run_trials,
    sweep,
    sweep_to_csv,
)

# the exact value is available for tiny d via the recursive oracle
g, c = bad_bipartite_start(3)
exact = exact_expected_recolorings_persistent(g, 4, c, "all")
print(f"d=3 exact expected post-start draws: {exact}")

# Monte Carlo growth: mean/(n*max_degree) stays bounded away from zero,
# the signature of Omega(n * degree) behavior
base = ExperimentConfig(
    graph={"kind": "badbip", "delta": 4}, algorithm="persistent",
    start="construction", trials=4000, master_seed=44,
    counters=("step3_draws",),
)
rows = sweep(base, "graph.delta", [4, 8, 16, 32])
print()
print(sweep_to_csv(rows))
print("normalized mean/(n*degree):",
      [f"{r.mean_over_n_delta:.3f}" for r in rows])

# contrast: the same graphs from a random start are far cheaper
for delta in (8, 32):
    cfg = ExperimentConfig(
        graph={"kind": "badbip", "delta": delta}, algorithm="persistent",
        start="random", trials=4000, master_seed=45,
        counters=("step3_draws",),
    )
    s = run_trials(cfg).stats["step3_draws"]
    print(f"d={delta} random start: mean {s.mean:.1f} draws "
          f"(rigged start above: {rows[[4, 8, 16, 32].index(delta)].mean:.1f})")
