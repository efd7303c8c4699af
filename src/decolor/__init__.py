"""Decentralized (Delta+1) graph coloring under conflict detection.

Simulators for the one-draw and persistent recoloring algorithms, exact
small-instance oracles, adversarial starts and orders, and a reproducible
Monte Carlo experiment harness with a CLI.
"""

from .adversary import (
    AdversaryStrategy,
    bad_bipartite_start,
    max_conflicted_pick,
    mimic_persistent_pick,
    min_phi_drift_pick,
    phi_drift_numerators,
    scripted_pick,
)
from .coloring import (
    Coloring,
    coloring_from_text,
    coloring_to_text,
    conflicted_edge_count,
    conflicted_vertices,
    free_colors,
    is_conflicted,
    is_proper,
    monochromatic_component_count,
    random_coloring,
    read_coloring_file,
)
from .engine import (
    AdversaryOrder,
    ConflictTracker,
    FixedPermutationOrder,
    RunResult,
    SchedulerPolicy,
    UNIFORM_ORDER,
    UniformRandomOrder,
    default_step_cap,
    run_decentralized,
    run_persistent,
    trace_to_text,
)
from .graphs import (
    Graph,
    from_edge_list,
    gen_clique,
    gen_complete_bipartite,
    gen_cycle,
    gen_erdos_renyi,
    gen_fig2_like,
    graph_from_text,
    graph_to_text,
    read_graph_file,
)
from .oracle import (
    ExactValue,
    canonical_pattern,
    exact_expected_conflict_deltas,
    exact_expected_phi_delta,
    exact_expected_recolorings_dc,
    exact_expected_recolorings_persistent,
    expected_draws_to_collect,
    harmonic,
    verify_fig2_deltas,
)
from .rng import STREAM_VERSION, splitmix64, trial_rng, trial_seed
from .experiments import (
    DriftReport,
    ExperimentConfig,
    SummaryStats,
    TrialsResult,
    config_hash,
    drift_check,
    random_invalid_state,
    run_trials,
    sweep,
    sweep_to_csv,
    write_outputs,
)
from .acceptance import AcceptanceReport, CriterionResult, SUITES, accept, run_criterion

__version__ = "0.1.0"
