"""
The persistent variant is one adversary away from the one-draw one
==================================================================

An order adversary that keeps re-selecting the same vertex until it clears
makes the one-draw algorithm reproduce the persistent variant exactly. Both
exact oracles agree rational-for-rational, and Monte Carlo runs of the two
processes land on the same mean. Run under the mimic order with the same
seeds, both algorithms make the same draws, trial for trial: the engine
runs a one-draw mimic selection as one redraw-until-clear step.
"""

from decolor import (
    AdversaryOrder,
    AdversaryStrategy,
    Coloring,
    ExperimentConfig,
    exact_expected_recolorings_dc,
    exact_expected_recolorings_persistent,
    from_edge_list,
    gen_clique,
    run_trials,
)

instances = [
    ("mono edge, D=2", from_edge_list(2, [(0, 1)]), 2, [1, 1]),
    ("path4 [1,1,2,2], D=3", from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 3, [1, 1, 2, 2]),
    ("mono K4, D=4", gen_clique(4), 4, [1, 1, 1, 1]),
]

mimic = AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="uniform")
for label, g, D, colors in instances:
    start = Coloring(colors, D)
    # the persistent oracle reads the mimic order as uniform order
    one_draw = exact_expected_recolorings_dc(g, D, start, mimic, method="exact")
    persistent = exact_expected_recolorings_persistent(g, D, start, mimic)
    mark = "==" if one_draw.value == persistent.value else "!="
    print(f"{label}: mimic one-draw {one_draw.value} {mark} persistent {persistent.value}")

# the same equivalence, seen through simulation
print("\nMonte Carlo cross-check on mono K4 (30k trials each):")
common = dict(
    graph={"kind": "clique", "n": 4}, D=4,
    start={"kind": "fixed", "colors": [1, 1, 1, 1]},
    trials=30_000, master_seed=99,
)
a = run_trials(ExperimentConfig(algorithm="dc", order="mimic", **common))
b = run_trials(ExperimentConfig(algorithm="persistent", order="uniform", **common))
sa, sb = a.stats["step3_draws"], b.stats["step3_draws"]
print(f"  one-draw + mimic adversary: {sa.mean:.4f} +- {sa.se:.4f}")
print(f"  persistent variant:         {sb.mean:.4f} +- {sb.se:.4f}")
c = run_trials(ExperimentConfig(algorithm="persistent", order="mimic", **common))
same = "==" if (a.step3_draws == c.step3_draws).all() else "!="
print(f"  one-draw + mimic {same} persistent + mimic, trial for trial "
      f"(step3_draws of all {len(a.step3_draws)} trials)")
