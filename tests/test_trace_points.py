"""The benchmark's tracer patches decolor module attributes by name.

`perfbench/tracing.py` wraps about twenty functions and classes at the
module attributes their callers look up, some of them private, so renaming
one of them under `src/` breaks `perfbench/run.py --trace 1`. This test
loads the tracer by path, unedited, and checks that it finds every attribute
it patches and puts each one back.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import decolor  # loads every module the tracer patches

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _decolor_modules() -> dict[str, dict]:
    """Each loaded decolor module's attributes, as a snapshot."""
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name.startswith("decolor.")}


def test_tracer_patches_existing_attributes_and_restores_them():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    before = _decolor_modules()
    try:
        # Tracer.patch reads each attribute before it sets it, so a missing
        # one raises AttributeError here
        tracing.install(tracer)
        during = _decolor_modules()
    finally:
        tracer.uninstall()
    after = _decolor_modules()

    patched = {(mod, name) for mod, attrs in during.items() for name, value in attrs.items()
               if value is not before.get(mod, {}).get(name)}
    assert {("decolor.adversary", "dispatch_pick"), ("decolor.experiments", "run_trials"),
            ("decolor.oracle", "exact_expected_recolorings_dc")} <= patched
    for mod, name in patched:
        assert name in before[mod], f"the tracer added {mod}.{name}, which did not exist"
    for mod, attrs in before.items():
        for name, value in attrs.items():
            assert after[mod].get(name) is value, f"{mod}.{name} was not restored"


def test_a_start_built_before_the_tracer_runs_under_it():
    # the tracer rebinds engine.Coloring to a timed subclass, so a start
    # built before it, or by experiments' spec builder (as in every traced
    # benchmark run), is no instance of engine's name for the class
    from decolor import ExperimentConfig, engine, experiments
    from decolor.coloring import Coloring
    from decolor.graphs import gen_clique
    from decolor.rng import trial_rng

    g, start = gen_clique(4), Coloring([1, 1, 2, 2], 4)
    # a lockstep kernel (uniform order) and the scalar engine (min-drift)
    configs = [ExperimentConfig(graph={"kind": "clique", "n": 4}, algorithm=algorithm,
                                start={"kind": "fixed", "colors": start.colors},
                                order=order, trials=20, workers=1)
               for algorithm in ("dc", "persistent") for order in ("uniform", "min-drift")]
    want = [experiments.run_trials(cfg).step3_draws.tolist() for cfg in configs]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert engine.Coloring is not Coloring
        for runner in (engine.run_decentralized, engine.run_persistent):
            r = runner(g, 4, start, engine.UNIFORM_ORDER, trial_rng(1, 0))
            assert r.terminated and isinstance(r.final_coloring, engine.Coloring)
        got = [experiments.run_trials(cfg).step3_draws.tolist() for cfg in configs]
    finally:
        tracer.uninstall()
    assert engine.Coloring is Coloring
    assert got == want
