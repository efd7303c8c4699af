"""Per-layer tracing of the public decolor API, installed from outside.

Spans are recorded around public functions at the module attribute each
caller looks up at call time, for example ``decolor.experiments.trial_rng``
(resolved by ``run_trials``) or ``decolor.adversary.dispatch_pick``
(resolved by the engine's policy path).  Nothing under ``src/`` changes and
:meth:`Tracer.uninstall` restores every attribute.

Spans are aggregated in memory per key as [layer, calls, inclusive seconds,
self seconds]; a span's self time is its duration minus the durations of the
spans it called.  Every span belongs to exactly one layer, so the layers'
self times plus the time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import collections
from time import perf_counter
from typing import Any, Callable

LAYERS = ("experiments", "graphs", "rng", "engine", "adversary", "oracle", "coloring")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def timed(self, fn: Callable, layer: str, key: str | Callable,
              observe: Callable[[tuple, Any], None] | None = None) -> Callable:
        """Wrap fn in a span; key may be a function of (args, result)."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                k = key(args, out) if callable(key) else key
                rec = spans.get(k)
                if rec is None:
                    rec = spans[k] = [layer, 0, 0.0, 0.0]
                rec[1] += 1
                rec[2] += dt
                rec[3] += dt - child
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def timed_class(self, cls: type, layer: str, key: str) -> type:
        """Subclass whose construction is a span; same slots, same isinstance."""
        return type(cls.__name__, (cls,), {"__slots__": (), "__init__": self.timed(cls.__init__, layer, key)})

    def patch(self, module: object, name: str, replacement: object) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def uninstall(self) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    # -- aggregates ---------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.spans[k][1] for k in keys if k in self.spans)

    def inclusive(self, *keys: str) -> float:
        return sum(self.spans[k][2] for k in keys if k in self.spans)

    def self_time(self, *keys: str) -> float:
        return sum(self.spans[k][3] for k in keys if k in self.spans)

    def layer(self, layer: str) -> tuple[int, float]:
        recs = [r for r in self.spans.values() if r[0] == layer]
        return sum(r[1] for r in recs), sum(r[3] for r in recs)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported decolor package."""
    import numpy as np
    from decolor import adversary, engine, experiments, oracle

    counts = tracer.counts
    timed, patch = tracer.timed, tracer.patch
    uniform = engine.UniformRandomOrder

    # experiments: the entry points the benchmark calls
    patch(experiments, "run_trials", timed(experiments.run_trials, "experiments", "experiments.run_trials"))
    patch(experiments, "drift_check", timed(
        experiments.drift_check, "experiments", "experiments.drift_check",
        observe=lambda args, out: counts.update(drift_vertices=out.vertices_checked)))

    # graphs: spec -> instance, rebuilt by run_trials on every call
    patch(experiments, "build_graph", timed(experiments.build_graph, "graphs", "graphs.build_graph"))

    # rng: generator construction, plus a proxy that counts generated values
    def count_values(args, out):
        counts["rng.values"] += int(np.size(out))

    class CountingGenerator:
        __slots__ = ("_gen",)

        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            return getattr(self._gen, name)

    def random(self, *args, **kwargs):
        return self._gen.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._gen.integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        return self._gen.permutation(*args, **kwargs)

    for fn in (random, integers, permutation):
        setattr(CountingGenerator, fn.__name__, timed(fn, "rng", "rng.generate", observe=count_values))
    build_rng = timed(experiments.trial_rng, "rng", "rng.trial_rng")
    patch(experiments, "trial_rng", lambda *args: CountingGenerator(build_rng(*args)))

    # engine: the two run loops, split by uniform fast path versus policy path
    for name in ("run_decentralized", "run_persistent"):
        def kind(args, out, name=name):
            return f"engine.{name}." + ("uniform" if isinstance(args[3], uniform) else "policy")

        def observe(args, out, kind=kind):
            k = kind(args, out)
            counts[k + ".draws"] += out.step3_draws
            counts[k + ".selections"] += out.selections
            counts["engine.total_draws"] += out.total_draws
            counts["engine.draws"] += out.step3_draws
            counts["engine.selections"] += out.selections
            counts["engine.cap_hits"] += not out.terminated

        patch(experiments, name, timed(getattr(experiments, name), "engine", kind, observe=observe))
    patch(engine, "ConflictTracker", tracer.timed_class(engine.ConflictTracker, "engine", "engine.ConflictTracker"))

    # coloring: the validating result coloring of every run, and the
    # coloring queries the oracle and the drift check make
    patch(engine, "Coloring", tracer.timed_class(engine.Coloring, "coloring", "coloring.result"))
    for name in ("conflicted_vertices", "is_conflicted", "monochromatic_component_count"):
        patch(oracle, name, timed(getattr(oracle, name), "coloring", f"coloring.{name}"))
    patch(experiments, "conflicted_vertices",
          timed(experiments.conflicted_vertices, "coloring", "coloring.conflicted_vertices"))

    # adversary: the policy path's pick, and the drift check's fast formula
    patch(adversary, "dispatch_pick", timed(adversary.dispatch_pick, "adversary", "adversary.dispatch_pick"))
    for name in ("min_phi_drift_pick", "mimic_persistent_pick"):
        patch(adversary, name, timed(getattr(adversary, name), "adversary", f"adversary.{name}"))
    patch(experiments, "phi_drift_numerators",
          timed(experiments.phi_drift_numerators, "adversary", "adversary.phi_drift_numerators"))

    # oracle: solves split by the method that actually ran, and drifts
    patch(oracle, "exact_expected_recolorings_dc", timed(
        oracle.exact_expected_recolorings_dc, "oracle",
        lambda args, out: "oracle.dc." + (out.method if out is not None else "raised")))
    patch(oracle, "exact_expected_recolorings_persistent",
          timed(oracle.exact_expected_recolorings_persistent, "oracle", "oracle.persistent"))
    for name in ("exact_expected_phi_delta", "exact_expected_conflict_deltas"):
        patch(oracle, name, timed(getattr(oracle, name), "oracle", f"oracle.drift.{name}"))


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                  pool_speedup: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    A metric about calls that did not happen on this workload reads 0.
    """
    t, c = tracer, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    accounted = 0.0
    for layer in LAYERS:
        calls, self_s = t.layer(layer)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        accounted += self_s
    out["unaccounted_s"] = (wall_s - accounted, "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_frac"] = (wall_s / untraced_wall_s - 1.0, "ratio")

    out["rng.trial_rng_us"] = (_per(t.inclusive("rng.trial_rng"), t.calls("rng.trial_rng"), 1e6), "us")
    out["rng.values_per_draw"] = (_per(c["rng.values"], c["engine.total_draws"]), "ratio")

    dc, pers = "engine.run_decentralized", "engine.run_persistent"
    policy = (dc + ".policy", pers + ".policy")
    out["engine.tracker_init_us"] = (
        _per(t.inclusive("engine.ConflictTracker"), t.calls("engine.ConflictTracker"), 1e6), "us")
    out["engine.dc_us_per_draw"] = (
        _per(t.self_time(dc + ".uniform"), c[dc + ".uniform.draws"], 1e6), "us")
    out["engine.persistent_us_per_draw"] = (
        _per(t.self_time(pers + ".uniform"), c[pers + ".uniform.draws"], 1e6), "us")
    out["engine.policy_us_per_step"] = (
        _per(t.self_time(*policy), sum(c[k + ".selections"] for k in policy), 1e6), "us")
    for name in ("draws", "selections", "cap_hits"):
        out[f"engine.{name}"] = (c[f"engine.{name}"], "count")

    out["coloring.result_us"] = (_per(t.inclusive("coloring.result"), t.calls("coloring.result"), 1e6), "us")

    for key, name in (("adversary.min_phi_drift_pick", "min_drift_pick_us"),
                      ("adversary.mimic_persistent_pick", "mimic_pick_us")):
        out[f"adversary.{name}"] = (_per(t.inclusive(key), t.calls(key), 1e6), "us")
    policy_s = t.inclusive(*policy)
    out["adversary.pick_share"] = (
        t.inclusive("adversary.dispatch_pick") / policy_s if policy_s else 0.0, "ratio")

    out["experiments.pool_speedup"] = (pool_speedup, "ratio")

    drift = ("oracle.drift.exact_expected_phi_delta", "oracle.drift.exact_expected_conflict_deltas")
    out["oracle.exact_s"] = (t.inclusive("oracle.dc.markov-exact"), "s")
    out["oracle.certified_s"] = (t.inclusive("oracle.dc.markov-certified"), "s")
    out["oracle.persistent_s"] = (t.inclusive("oracle.persistent"), "s")
    out["oracle.drift_s"] = (t.inclusive(*drift), "s")
    out["oracle.solves"] = (
        sum(r[1] for k, r in t.spans.items() if k.startswith("oracle.dc.")) + t.calls("oracle.persistent"),
        "count")
    out["oracle.drift_vertices"] = (c["drift_vertices"], "count")

    out["graphs.build_s"] = (t.inclusive("graphs.build_graph"), "s")
    return out
