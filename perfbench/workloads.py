"""The benchmark's workloads: instances, fixed batches and correctness checks.

Each workload is a fixed batch of calls into the public decolor API, the
same calls ``decolor run``, ``decolor oracle`` and ``decolor accept`` make.
The benchmark repeats the batch for the requested time.  Repetition ``rep``
of a run with seed ``seed`` takes its Monte Carlo master seeds from
``(seed, rep, case index)``, so one seed always gives the same inputs.  The
graph instances themselves are fixed, because their exact expectations are
pinned in ``pinned.json`` (written by ``pin.py``).

This module imports only the standard library at import time: importing
decolor is part of the measured set-up, so it happens inside :func:`setup`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "pinned.json"
WORKLOADS = ("mc-uniform", "adversarial", "exact")
Z = 4.0  # Monte Carlo tolerance in standard errors, as in the acceptance suite


def use_checkout_sources() -> None:
    """Import decolor from ``src/`` of this checkout and nowhere else.

    Raises SystemExit(2) when the sources are missing, so a directory that
    holds only the benchmark fails before printing any result.
    """
    src = ROOT / "src"
    if not (src / "decolor" / "__init__.py").is_file():
        print(f"perfbench: no decolor sources under {src}; run from a repository checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def derive_seed(*parts: object) -> int:
    """A 63-bit master seed from the run seed and the position in the run."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def harmonic(k: int) -> float:
    return math.fsum(1.0 / i for i in range(1, k + 1))


# ---------------------------------------------------------------------------
# instances


def path_spec(n: int) -> dict:
    return {"kind": "edges", "n": n, "edges": [[i, i + 1] for i in range(n - 1)]}


MONO = {"kind": "mono", "color": 1}
STAR4 = {"kind": "edges", "n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}

# AC-10: (label, graph spec, D or None for max degree + 1, start spec)
AC10 = [
    ("edge-mono", {"kind": "edges", "n": 2, "edges": [[0, 1]]}, 2, {"kind": "fixed", "colors": [1, 1]}),
    ("path3", path_spec(3), 3, "random"),
    ("K3", {"kind": "clique", "n": 3}, 3, "random"),
    ("K4", {"kind": "clique", "n": 4}, 4, "random"),
    ("C4-mono", {"kind": "cycle", "n": 4}, 3, MONO),
    ("C5", {"kind": "cycle", "n": 5}, 3, "random"),
    ("star4-mono", STAR4, 4, MONO),
    ("path5", path_spec(5), 3, "random"),
    ("G(6,0.4)", {"kind": "erdos", "n": 6, "p": 0.4, "seed": 901}, None, "random"),
    ("G(6,0.5)-mono", {"kind": "erdos", "n": 6, "p": 0.5, "seed": 902}, None, MONO),
    ("C6", {"kind": "cycle", "n": 6}, 3, "random"),
    ("K5", {"kind": "clique", "n": 5}, 5, "random"),
    ("K23", {"kind": "bipartite", "a": 2, "b": 3}, 4, "random"),
    ("badbip(2)", {"kind": "badbip", "delta": 2}, None, "construction"),
    ("G(7,0.3)", {"kind": "erdos", "n": 7, "p": 0.3, "seed": 903}, None, "random"),
    ("C8-mono", {"kind": "cycle", "n": 8}, 3, MONO),
    ("path7", path_spec(7), 3, "random"),
    ("matching3-mono", {"kind": "edges", "n": 6, "edges": [[0, 1], [2, 3], [4, 5]]}, 2, MONO),
    ("G(5,0.6)", {"kind": "erdos", "n": 5, "p": 0.6, "seed": 904}, None, "random"),
    ("K33", {"kind": "bipartite", "a": 3, "b": 3}, 4, "random"),
]
# the AC-10 chains with 166-169 transient states: dense rational elimination
# under method "auto", a certified sparse solve under method "iterative"
DENSE = ("G(6,0.4)", "G(6,0.5)-mono", "C6", "K33")
# the two slowest dense eliminations (about 3 s each on fractions) are left
# out of the exact workload's "auto" pass and solved with "iterative" only:
# with them a batch took 8-9 s and a run had too few batches to be steady
AUTO_SKIP = ("G(6,0.4)", "K33")

# AC-6: adversarial starts under the min-drift order
AC6 = [
    ("badbip(3)", {"kind": "badbip", "delta": 3}, "construction"),
    ("badbip(5)", {"kind": "badbip", "delta": 5}, "construction"),
    ("mono-K6", {"kind": "clique", "n": 6}, MONO),
    ("mono-C12", {"kind": "cycle", "n": 12}, MONO),
    ("mono-G(10,0.35)", {"kind": "erdos", "n": 10, "p": 0.35, "seed": 1035}, MONO),
]

# AC-8: (label, graph spec, palettes); starts are all-1 and [1, 1, 2, 2, ...]
AC8 = [
    ("edge", path_spec(2), (2, 3, 4)),
    ("path3", path_spec(3), (3, 4)),
    ("K3", {"kind": "clique", "n": 3}, (3, 4)),
    ("path4", path_spec(4), (3, 4)),
    ("star4", STAR4, (4,)),
    ("C4", {"kind": "cycle", "n": 4}, (3, 4)),
    ("C5", {"kind": "cycle", "n": 5}, (3, 4)),
    ("K4", {"kind": "clique", "n": 4}, (4,)),
]

# persistent recursion: (label, graph spec, D), random start
PERSISTENT = [
    ("K7", {"kind": "clique", "n": 7}, 7),
    ("C8", {"kind": "cycle", "n": 8}, 3),
]


@dataclass(frozen=True)
class McCase:
    """One ``run_trials`` call of a Monte Carlo batch and what it must satisfy.

    Checks run on the trials of all repetitions pooled: ``pin`` names the
    pinned exact mean of step3_draws (within 4 SE plus its certified bound),
    ``stop_bound`` asks mean step3_draws <= (n-1)*D + 4 SE (AC-6), ``floor``
    asks mean step3_draws >= floor (AC-4's d^2/8), and ``harmonic`` asks
    every vertex's mean draws <= H_deg + 4 SE (AC-3).
    """

    label: str
    graph: dict
    trials: int
    smoke_trials: int
    D: int | None = None
    start: Any = "random"
    order: Any = "uniform"
    algorithm: str = "dc"
    pin: str | None = None
    stop_bound: bool = False
    floor: float | None = None
    harmonic: bool = False

    def config(self, experiments, trials: int, master_seed: int):
        counters = ("step3_draws", "per_vertex") if self.harmonic else ("total_draws", "step3_draws")
        return experiments.ExperimentConfig(
            graph=self.graph, algorithm=self.algorithm, D=self.D, start=self.start,
            order=self.order, trials=trials, master_seed=master_seed,
            counters=counters, workers=1,
        )


# mc-uniform runs the uniform-order fast paths in two regimes: tiny graphs,
# where per-trial fixed cost is nearly the whole trial, then large ones,
# where it is amortised.  The per-case medians printed by the benchmark keep
# the two regimes apart.
MC_CASES = {
    "mc-uniform": [
        McCase(label, spec, 1000, 40, D=D, start=start, pin=f"ac10/{label}")
        for label, spec, D, start in AC10
    ] + [
        McCase("K8", {"kind": "clique", "n": 8}, 1000, 40, D=8, pin="K8"),
        McCase("G(1000,0.01)-mono", {"kind": "erdos", "n": 1000, "p": 0.01, "seed": 1001},
               100, 2, start=MONO, stop_bound=True),
        McCase("C1000-mono", {"kind": "cycle", "n": 1000}, 100, 2, D=3, start=MONO,
               stop_bound=True),
        McCase("K64", {"kind": "clique", "n": 64}, 400, 10, D=64, pin="K64", stop_bound=True),
        McCase("K32-persistent", {"kind": "clique", "n": 32}, 2000, 20, D=32,
               algorithm="persistent", harmonic=True),
        McCase("badbip(32)", {"kind": "badbip", "delta": 32}, 1000, 10,
               start="construction", algorithm="persistent", floor=32 * 32 / 8),
    ],
    "adversarial": [
        McCase(f"min-drift/{label}", spec, 300, 20, start=start, order="min-drift",
               stop_bound=True)
        for label, spec, start in AC6
    ] + [
        McCase("min-drift/G(200,0.05)", {"kind": "erdos", "n": 200, "p": 0.05, "seed": 2005},
               12, 1, order="min-drift", stop_bound=True),
        McCase("mimic/badbip(16)", {"kind": "badbip", "delta": 16}, 400, 5,
               start="construction", order="mimic", stop_bound=True, floor=16 * 16 / 8),
        McCase("mimic/badbip(3)", {"kind": "badbip", "delta": 3}, 3000, 100,
               start="construction", order="mimic", pin="badbip(3)-mimic"),
    ],
}


def load_pinned(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_value(entry: dict) -> tuple[Fraction, Fraction]:
    """(exact value, certified error bound) of one pinned entry."""
    return Fraction(entry["p"], entry["q"]), Fraction(entry["bound_p"], entry["bound_q"])


# ---------------------------------------------------------------------------
# Monte Carlo workloads


@dataclass
class Tally:
    """Pooled statistics and operation outcomes of one McCase over a run."""

    ops: int = 0
    failed_ops: int = 0
    n: int = 0
    D: int = 0
    trials: int = 0
    s1: int = 0
    s2: int = 0
    vertex_s1: list[float] | None = None
    vertex_s2: list[float] | None = None
    degrees: list[int] | None = None

    def mean_se(self) -> tuple[float, float]:
        t = self.trials
        mean = self.s1 / t
        var = (self.s2 - t * mean * mean) / (t - 1) if t > 1 else 0.0
        return mean, math.sqrt(max(var, 0.0) / t)


@dataclass
class Workload:
    """Common interface of the four workloads.

    ``batch(rep)`` is the timed unit; ``record(rep, outcomes)`` checks its
    outcomes untimed; ``finish()`` applies the pooled checks and returns
    (attempted, failed), the checks made with ``check`` included.  ``units``
    is the number of trials (MC) or oracle solves (exact) in one batch;
    ``counts`` holds exact-repeat counts of repetition 0.
    """

    name: str
    seed: int
    smoke: bool
    units: int = 0
    counts: dict = field(default_factory=dict)
    checks: int = 0
    failed_checks: int = 0

    def fail(self, text: str) -> None:
        print(f"perfbench: FAILED {text}", file=sys.stderr)

    def check(self, ok: bool, text: str) -> None:
        """A check outside the batches; it counts as one operation."""
        self.checks += 1
        if not ok:
            self.failed_checks += 1
            self.fail(text)


class McWorkload(Workload):
    def __init__(self, name: str, seed: int, smoke: bool, pinned: dict, decolor_mods):
        super().__init__(name, seed, smoke)
        self.experiments = decolor_mods["experiments"]
        self.cases = MC_CASES[name]
        self.trials = [c.smoke_trials if smoke else c.trials for c in self.cases]
        self.units = sum(self.trials)
        self.pins = {c.pin: pinned_value(pinned[c.pin]) for c in self.cases if c.pin}
        self.tallies = [Tally() for _ in self.cases]
        self.case_s: list[list[float]] = [[] for _ in self.cases]

    def warm_up(self) -> None:
        for c in self.cases:
            self.experiments.run_trials(c.config(self.experiments, 1, 0))

    def batch(self, rep: int) -> list:
        experiments = self.experiments  # run_trials is looked up per call
        out = []
        for i, c in enumerate(self.cases):
            cfg = c.config(experiments, self.trials[i], derive_seed(self.seed, rep, i))
            t0 = time.perf_counter()
            try:
                out.append(experiments.run_trials(cfg))
            except Exception:
                out.append(traceback.format_exc())
            self.case_s[i].append(time.perf_counter() - t0)
        return out

    def record(self, rep: int, outcomes: list) -> None:
        draws = selections = cap_hits = 0
        for c, tally, res in zip(self.cases, self.tallies, outcomes):
            tally.ops += 1
            if isinstance(res, str):
                tally.failed_ops += 1
                self.fail(f"{c.label} rep {rep} raised:\n{res}")
                continue
            draws += int(res.step3_draws.sum())
            selections += int(res.selections.sum())
            cap_hits += res.cap_hits
            ok = True
            if not (res.total_draws == res.n + res.step3_draws).all():
                ok = False
                self.fail(f"{c.label} rep {rep}: total_draws != n + step3_draws")
            if res.cap_hits:
                ok = False
                self.fail(f"{c.label} rep {rep}: {res.cap_hits} trial(s) hit the step cap")
            if not ok:
                tally.failed_ops += 1
            tally.n, tally.D = res.n, res.D
            steps = res.step3_draws
            tally.trials += int(steps.size)
            tally.s1 += int(steps.sum())
            tally.s2 += int((steps * steps).sum())
            if c.harmonic:
                t = steps.size
                if tally.vertex_s1 is None:
                    tally.vertex_s1 = [0.0] * res.n
                    tally.vertex_s2 = [0.0] * res.n
                    tally.degrees = [row.degree for row in res.per_vertex]
                for row in res.per_vertex:
                    tally.vertex_s1[row.vertex] += row.mean * t
                    tally.vertex_s2[row.vertex] += row.std * row.std * (t - 1) + t * row.mean * row.mean
        if rep == 0:
            self.counts = {"draws": draws, "selections": selections, "cap_hits": cap_hits}

    def finish(self) -> tuple[int, int]:
        attempted, failed = self.checks, self.failed_checks
        for c, tally in zip(self.cases, self.tallies):
            attempted += tally.ops
            if tally.trials and not self._pooled_ok(c, tally):
                tally.failed_ops = tally.ops
            failed += tally.failed_ops
        return attempted, failed

    def _pooled_ok(self, c: McCase, tally: Tally) -> bool:
        mean, se = tally.mean_se()
        ok = True
        if c.pin:
            value, bound = self.pins[c.pin]
            tol = Z * se + float(bound)
            if abs(mean - float(value)) > tol:
                ok = False
                self.fail(f"{c.label}: mean step3 {mean:.5f} vs pinned {float(value):.5f} "
                          f"(4 SE = {Z * se:.5f}, {tally.trials} trials)")
        if c.stop_bound and mean > (tally.n - 1) * tally.D + Z * se:
            ok = False
            self.fail(f"{c.label}: mean step3 {mean:.3f} above (n-1)*D = {(tally.n - 1) * tally.D}")
        if c.floor is not None and mean < c.floor:
            ok = False
            self.fail(f"{c.label}: mean step3 {mean:.3f} below the d^2/8 floor {c.floor}")
        if c.harmonic:
            t = tally.trials
            for v, (s1, s2, deg) in enumerate(zip(tally.vertex_s1, tally.vertex_s2, tally.degrees)):
                vm = s1 / t
                vse = math.sqrt(max((s2 - t * vm * vm) / (t - 1), 0.0) / t) if t > 1 else 0.0
                if vm > harmonic(deg) + Z * vse:
                    ok = False
                    self.fail(f"{c.label}: vertex {v} mean draws {vm:.4f} above H_{deg} + 4 SE")
        return ok


# ---------------------------------------------------------------------------
# exact workload


@dataclass
class OracleOp:
    """One call of the exact workload: ``call(rep)`` runs it, ``check(result)``
    says whether the result is right, ``solves`` counts its oracle solves."""

    label: str
    call: Callable[[int], Any]
    check: Callable[[Any], bool]
    solves: int
    heavy: bool = False


class ExactWorkload(Workload):
    def __init__(self, seed: int, smoke: bool, pinned: dict, decolor_mods):
        super().__init__("exact", seed, smoke)
        self.experiments = decolor_mods["experiments"]
        self.oracle = decolor_mods["oracle"]
        self.engine = decolor_mods["engine"]
        ops = self._build_ops(pinned, self.engine, decolor_mods["adversary"])
        self.ops = [o for o in ops if not (smoke and o.heavy)]
        self.units = sum(o.solves for o in self.ops)
        self.attempted = 0
        self.failed = 0

    def _instance(self, spec, D, start):
        experiments = self.experiments
        g, bundled = experiments.build_graph(spec)
        d = experiments.resolve_palette(D, g, bundled)
        return g, d, experiments.build_start(start, g, d, bundled)

    def _build_ops(self, pinned, engine, adversary) -> list[OracleOp]:
        oracle = self.oracle  # every call below looks its function up at call time
        ops: list[OracleOp] = []

        def matches(key):
            value, bound = pinned_value(pinned[key])
            return lambda got: abs(got.value - value) <= got.error_bound + bound

        for label, spec, D, start in AC10:
            g, d, s = self._instance(spec, D, start)
            if label not in AUTO_SKIP:
                ops.append(OracleOp(
                    f"ac10/{label}",
                    lambda rep, g=g, d=d, s=s: oracle.exact_expected_recolorings_dc(
                        g, d, s, engine.UNIFORM_ORDER),
                    matches(f"ac10/{label}"), 1, heavy=label in DENSE and label != "C6"))
            if label in DENSE:
                ops.append(OracleOp(
                    f"iterative/{label}",
                    lambda rep, g=g, d=d, s=s: oracle.exact_expected_recolorings_dc(
                        g, d, s, engine.UNIFORM_ORDER, method="iterative"),
                    matches(f"ac10/{label}"), 1, heavy=label != "C6"))

        # mimic "uniform" matches the persistent process over all orders,
        # mimic "lowest" matches it in the identity order
        for label, spec, palettes in AC8:
            g, _ = self.experiments.build_graph(spec)
            for D in palettes:
                for colors in ([1] * g.n, ([1, 1] + [2] * (g.n - 2))[:g.n]):
                    s = self.experiments.build_start({"kind": "fixed", "colors": colors}, g, D, None)
                    for mode in ("uniform", "lowest"):
                        sched = engine.AdversaryOrder(adversary.AdversaryStrategy.MimicPersistent,
                                                      mode=mode)
                        perm = "all" if mode == "uniform" else list(range(g.n))

                        def both(rep, g=g, D=D, s=s, sched=sched, perm=perm):
                            return (
                                oracle.exact_expected_recolorings_dc(g, D, s, sched, method="exact"),
                                oracle.exact_expected_recolorings_persistent(g, D, s, perm),
                            )

                        ops.append(OracleOp(f"ac8/{label}/D{D}/{colors}/{mode}", both,
                                            lambda got: got[0].value == got[1].value, 2))

        for label, spec, D in PERSISTENT:
            g, d, s = self._instance(spec, D, "random")
            ops.append(OracleOp(
                f"persistent/{label}",
                lambda rep, g=g, d=d, s=s: oracle.exact_expected_recolorings_persistent(g, d, s),
                matches(f"persistent/{label}"), 1))

        samples = 20 if self.smoke else 300
        ops.append(OracleOp(
            "drift_check",
            lambda rep: self.experiments.drift_check(
                samples, n_max=12, d_max=6, seed=derive_seed(self.seed, rep, "drift")),
            lambda report: report.ok and report.gadget_tight, 0))
        return ops

    def warm_up(self) -> None:
        # one small call of each kind, so first-call costs such as the
        # certified path's lazy scipy.sparse import land in setup_s
        engine, oracle = self.engine, self.oracle
        g, d, s = self._instance(path_spec(3), 3, "random")
        oracle.exact_expected_recolorings_dc(g, d, s, engine.UNIFORM_ORDER, method="iterative")
        oracle.exact_expected_recolorings_dc(g, d, s, engine.UNIFORM_ORDER, method="exact")
        oracle.exact_expected_recolorings_persistent(g, d, s)
        self.experiments.drift_check(2, seed=0)

    def batch(self, rep: int) -> list:
        out = []
        for op in self.ops:
            try:
                out.append(op.call(rep))
            except Exception:
                out.append(traceback.format_exc())
        return out

    def record(self, rep: int, outcomes: list) -> None:
        drift_vertices = 0
        for op, got in zip(self.ops, outcomes):
            self.attempted += 1
            if isinstance(got, str):
                self.failed += 1
                self.fail(f"{op.label} rep {rep} raised:\n{got}")
                continue
            if op.label == "drift_check":
                drift_vertices = got.vertices_checked
            if not op.check(got):
                self.failed += 1
                self.fail(f"{op.label} rep {rep}: result {got} does not match")
        if rep == 0:
            self.counts = {"oracle_solves": self.units, "drift_vertices": drift_vertices}

    def finish(self) -> tuple[int, int]:
        return self.attempted + self.checks, self.failed + self.failed_checks


# ---------------------------------------------------------------------------
# set-up


def setup(name: str, seed: int, smoke: bool, pinned_path: Path) -> tuple[Workload, float]:
    """Import decolor, build the workload's instances and warm up lazy costs.

    Returns the workload and the seconds all of that took (``setup_s``).
    """
    t0 = time.perf_counter()
    from decolor import adversary, engine, experiments, oracle  # measured, like the rest

    mods = {"adversary": adversary, "engine": engine, "experiments": experiments, "oracle": oracle}
    pinned = load_pinned(pinned_path)
    if name == "exact":
        workload: Workload = ExactWorkload(seed, smoke, pinned, mods)
    else:
        workload = McWorkload(name, seed, smoke, pinned, mods)
    workload.warm_up()
    return workload, time.perf_counter() - t0
