"""Pinned acceptance suite: ten numbered criteria with fixed seeds.

Each criterion re-derives its target (exact oracle value, harmonic bound,
or explicit constant), runs the pinned experiment, and reports one
PASS/FAIL line. Every instance is built by `experiments._build` from the
specs a user would pass. Monte Carlo checks allow `SE_TOLERANCE` standard
errors, so a correct implementation fails a criterion with probability well
under 1e-4.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import oracle
from .coloring import monochromatic_component_count
from .experiments import (DriftReport, ExperimentConfig, SummaryStats, TrialsResult, _build,
                          drift_check, run_trials)
from .graphs import gen_fig2_like

SE_TOLERANCE = 4  # Monte Carlo tolerance, in standard errors of the mean


@dataclass
class CriterionResult:
    name: str
    passed: bool
    summary: str
    seconds: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name} {verdict} ({self.seconds:.1f}s): {self.summary}"


def _simulate(graph: dict, seed: int, trials: int = 100_000, **fields) -> TrialsResult:
    """run_trials on a graph spec, master seed, trial count and ExperimentConfig fields."""
    return run_trials(ExperimentConfig(graph=graph, trials=trials, master_seed=seed, **fields))


def _within(s: SummaryStats, target: float, slack: float = 0.0) -> bool:
    return abs(s.mean - target) <= SE_TOLERANCE * s.se + slack


# ---------------------------------------------------------------------------
# AC-1 / AC-2: clique expectations, exact and Monte Carlo


def ac1_exact_cliques() -> CriterionResult:
    """One-draw oracle on K3/K4 equals the collect-all-colors closed form."""
    checks = []
    for n in (3, 4):
        clique = ExperimentConfig({"kind": "clique", "n": n})  # D = n, random start, uniform order
        got = oracle.exact_expected_recolorings_dc(*_build(clique))
        want = Fraction(n) * oracle.harmonic(n).value - n
        checks.append((n, got.value, want, got.value == want))
    passed = all(ok for *_, ok in checks)
    shown = "; ".join(f"K{n}: {v} (target {w})" for n, v, w, _ in checks)
    return CriterionResult(
        "AC-1",
        passed,
        f"exact one-draw recolorings on cliques: {shown}",
    )


def ac2_clique_monte_carlo() -> CriterionResult:
    """100k one-draw runs on K8 land on 8*H8 total draws within 4 SE."""
    s = _simulate({"kind": "clique", "n": 8}, 20240802, D=8).stats["total_draws"]
    target = float(8 * oracle.harmonic(8).value)
    return CriterionResult(
        "AC-2",
        _within(s, target),
        f"K8 mean total draws {s.mean:.4f} vs 8*H8 = {target:.4f} "
        f"({SE_TOLERANCE} SE = {SE_TOLERANCE * s.se:.4f})",
    )


# ---------------------------------------------------------------------------
# AC-3: per-vertex harmonic bound for the persistent process


def ac3_per_vertex_bounds() -> CriterionResult:
    """Persistent per-vertex mean draws stay below H_deg(v) + 4 SE."""
    runs = [
        ("K32", {"kind": "clique", "n": 32}, 32, 20240803),
        ("G(64,0.15)", {"kind": "erdos", "n": 64, "p": 0.15, "seed": 6415}, None, 20240813),
    ]
    worst = None
    failures = 0
    vertices = 0
    for label, spec, D, seed in runs:
        result = _simulate(spec, seed, algorithm="persistent", D=D,
                           counters=("step3_draws", "per_vertex"))
        for row in result.per_vertex:
            vertices += 1
            bound = float(oracle.harmonic(row.degree).value) + SE_TOLERANCE * row.se
            margin = bound - row.mean
            if margin < 0:
                failures += 1
            if worst is None or margin < worst[0]:
                worst = (margin, label, row.vertex, row.mean, bound)
    passed = failures == 0
    _, label, v, mean, bound = worst
    return CriterionResult(
        "AC-3",
        passed,
        f"{vertices} vertices checked, {failures} above bound; tightest: "
        f"{label} v{v} mean {mean:.4f} vs H_deg+{SE_TOLERANCE}SE {bound:.4f}",
    )


# ---------------------------------------------------------------------------
# AC-4: adversarial complete-bipartite start forces quadratic work


def ac4_adversarial_bipartite() -> CriterionResult:
    """Persistent on the rigged K_{d,d} start grows like d^2, not d."""
    means = {}
    for delta in (4, 8, 16, 32):
        result = _simulate({"kind": "badbip", "delta": delta}, 20240804 + delta, 10_000,
                           algorithm="persistent", start="construction")
        means[delta] = result.stats["step3_draws"].mean
    floor_ok = all(means[d] >= d * d / 8 for d in means)
    ratios = [means[2 * d] / means[d] for d in (4, 8, 16)]
    ratio_ok = all(r >= 3 for r in ratios)

    # d = 3 against the exact persistent value, on the palette its start bundles
    result = _simulate({"kind": "badbip", "delta": 3}, 20240807, 10_000,
                       algorithm="persistent", start="construction")
    s3 = result.stats["step3_draws"]
    g3, d3, start3, _ = _build(result.config)
    exact3 = oracle.exact_expected_recolorings_persistent(g3, d3, start3, "all")
    exact_ok = _within(s3, float(exact3.value))

    passed = floor_ok and ratio_ok and exact_ok
    shown = ", ".join(f"d={d}: {means[d]:.1f}" for d in (4, 8, 16, 32))
    return CriterionResult(
        "AC-4",
        passed,
        f"means {shown}; doubling ratios {[f'{r:.2f}' for r in ratios]}; d=3 mean {s3.mean:.4f} "
        f"vs exact {exact3.value} ({SE_TOLERANCE} SE = {SE_TOLERANCE * s3.se:.4f})",
    )


# ---------------------------------------------------------------------------
# AC-5 / AC-7: exact one-step drifts on a shared random sample set


@functools.lru_cache(maxsize=1)
def _shared_drift_report() -> DriftReport:
    return drift_check(1000, n_max=12, d_max=6, seed=20240805)


def ac5_component_drift() -> CriterionResult:
    """Component-count drift >= 1/D everywhere; the gadget is tight at 1/4."""
    rep = _shared_drift_report()
    bad = [v for v in rep.violations if v.kind in ("phi-drift", "incremental-mismatch")]
    tight = rep.gadget_tight and rep.gadget_drift == Fraction(1, 4)
    passed = not bad and tight
    return CriterionResult(
        "AC-5",
        passed,
        f"{rep.vertices_checked} conflicted vertices over {rep.samples} samples, "
        f"{len(bad)} drift violations; min drift {rep.min_phi_drift}; "
        f"gadget drift {rep.gadget_drift} tight={rep.gadget_tight}",
    )


def ac7_edge_drift() -> CriterionResult:
    """Conflicted-edge drift <= -1/D on the same sample set."""
    rep = _shared_drift_report()
    bad = [v for v in rep.violations if v.kind == "edge-drift"]
    return CriterionResult(
        "AC-7",
        not bad,
        f"{rep.vertices_checked} vertices, {len(bad)} edge-drift violations; "
        f"max edge drift {rep.max_edge_drift}",
    )


# ---------------------------------------------------------------------------
# AC-6: adversarial start and order stay within the (n-1)*D stopping bound


def ac6_adversarial_stopping() -> CriterionResult:
    """Worst-order one-draw runs still finish within (n-1)*D recolorings."""
    mono = {"kind": "mono", "color": 1}
    instances = [
        ("badbip(3)", {"kind": "badbip", "delta": 3}, "construction"),
        ("badbip(5)", {"kind": "badbip", "delta": 5}, "construction"),
        ("mono-K6", {"kind": "clique", "n": 6}, mono),
        ("mono-C12", {"kind": "cycle", "n": 12}, mono),
        ("mono-G(10,0.35)", {"kind": "erdos", "n": 10, "p": 0.35, "seed": 1035}, mono),
    ]
    rows = []
    for i, (label, spec, start) in enumerate(instances):
        result = _simulate(spec, 20240806 + i, 10_000, start=start, order="min-drift")
        s = result.stats["step3_draws"]
        bound = (result.n - 1) * result.D
        rows.append((label, s.mean, bound, s.mean <= bound + SE_TOLERANCE * s.se))
    shown = "; ".join(f"{l}: {m:.2f} <= {b}" for l, m, b, _ in rows)
    return CriterionResult(
        "AC-6",
        all(ok for *_, ok in rows),
        f"min-drift adversary means vs (n-1)*D bounds: {shown}",
    )


# ---------------------------------------------------------------------------
# AC-8: the mimicking adversary makes the one-draw chain match persistent


def _path_spec(n: int) -> dict:
    return {"kind": "edges", "n": n, "edges": [[i, i + 1] for i in range(n - 1)]}


def _ac8_family():
    """(label, graph spec, D, start colors) combos, all with D >= max degree + 1."""
    combos = []
    for label, spec, ds in [
        ("edge", _path_spec(2), (2, 3, 4)),
        ("path3", _path_spec(3), (3, 4)),
        ("K3", {"kind": "clique", "n": 3}, (3, 4)),
        ("path4", _path_spec(4), (3, 4)),
        ("star4", {"kind": "edges", "n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}, (4,)),
        ("C4", {"kind": "cycle", "n": 4}, (3, 4)),
        ("C5", {"kind": "cycle", "n": 5}, (3, 4)),
        ("K4", {"kind": "clique", "n": 4}, (4,)),
    ]:
        n = spec["n"]
        starts = [[1] * n, ([1, 1] + [2] * (n - 2))[:n]]
        for D in ds:
            for colors in starts:
                combos.append((label, spec, D, colors))
    return combos


def ac8_mimic_equivalence() -> CriterionResult:
    """Exact equality of the two oracles under both selection modes."""
    checked = 0
    mismatches = 0
    for _, spec, D, colors in _ac8_family():
        for mode in ("uniform", "lowest"):
            g, _, start, mimic = _build(ExperimentConfig(
                graph=spec, D=D, start={"kind": "fixed", "colors": colors},
                order={"kind": "mimic", "mode": mode}))
            via_dc = oracle.exact_expected_recolorings_dc(g, D, start, mimic, method="exact")
            # mimic:lowest follows the persistent process in vertex-id order
            order = "all" if mode == "uniform" else list(range(g.n))
            via_persistent = oracle.exact_expected_recolorings_persistent(g, D, start, order)
            checked += 1
            mismatches += via_dc.value != via_persistent.value
    passed = checked >= 50 and not mismatches
    return CriterionResult(
        "AC-8",
        passed,
        f"{checked} instance/mode pairs compared exactly, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# AC-9: the five-vertex gadget reproduces its delta table


def ac9_gadget_deltas() -> CriterionResult:
    g, c, v = gen_fig2_like()
    _, vertex_delta, _ = oracle.exact_expected_conflict_deltas(g, c, v)
    table_ok = oracle.verify_fig2_deltas(g, c, v)
    mono = monochromatic_component_count(g, c)
    passed = vertex_delta.value == Fraction(1, 4) and table_ok and mono == 3
    return CriterionResult(
        "AC-9",
        passed,
        f"conflicted-vertex delta {vertex_delta.value} (want 1/4), delta table ok={table_ok}, "
        f"monochromatic components {mono} (want 3)",
    )


# ---------------------------------------------------------------------------
# AC-10: Monte Carlo agrees with the exact chain on 20 small instances


_AC10_INSTANCES = [
    ("edge-mono", {"kind": "edges", "n": 2, "edges": [[0, 1]]}, 2, {"kind": "fixed", "colors": [1, 1]}),
    ("path3", _path_spec(3), 3, "random"),
    ("K3", {"kind": "clique", "n": 3}, 3, "random"),
    ("K4", {"kind": "clique", "n": 4}, 4, "random"),
    ("C4-mono", {"kind": "cycle", "n": 4}, 3, {"kind": "mono", "color": 1}),
    ("C5", {"kind": "cycle", "n": 5}, 3, "random"),
    ("star4-mono", {"kind": "edges", "n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}, 4, {"kind": "mono", "color": 1}),
    ("path5", _path_spec(5), 3, "random"),
    ("G(6,0.4)", {"kind": "erdos", "n": 6, "p": 0.4, "seed": 901}, None, "random"),
    ("G(6,0.5)-mono", {"kind": "erdos", "n": 6, "p": 0.5, "seed": 902}, None, {"kind": "mono", "color": 1}),
    ("C6", {"kind": "cycle", "n": 6}, 3, "random"),
    ("K5", {"kind": "clique", "n": 5}, 5, "random"),
    ("K23", {"kind": "bipartite", "a": 2, "b": 3}, 4, "random"),
    ("badbip(2)", {"kind": "badbip", "delta": 2}, None, "construction"),
    ("G(7,0.3)", {"kind": "erdos", "n": 7, "p": 0.3, "seed": 903}, None, "random"),
    ("C8-mono", {"kind": "cycle", "n": 8}, 3, {"kind": "mono", "color": 1}),
    ("path7", _path_spec(7), 3, "random"),
    ("matching3-mono", {"kind": "edges", "n": 6, "edges": [[0, 1], [2, 3], [4, 5]]}, 2, {"kind": "mono", "color": 1}),
    ("G(5,0.6)", {"kind": "erdos", "n": 5, "p": 0.6, "seed": 904}, None, "random"),
    ("K33", {"kind": "bipartite", "a": 3, "b": 3}, 4, "random"),
]


def ac10_oracle_simulation_agreement() -> CriterionResult:
    """20 instances: 100k-trial means sit within 4 SE of the exact chain."""
    rows = []
    for i, (label, spec, D, start) in enumerate(_AC10_INSTANCES):
        result = _simulate(spec, 20241000 + i, D=D, start=start)
        exact = oracle.exact_expected_recolorings_dc(*_build(result.config))
        s, value = result.stats["step3_draws"], float(exact.value)
        rows.append((label, s.mean, value, _within(s, value, float(exact.error_bound))))
    worst = max(rows, key=lambda r: abs(r[1] - r[2]))
    return CriterionResult(
        "AC-10",
        all(ok for *_, ok in rows),
        f"{len(rows)} instances compared, {sum(not r[3] for r in rows)} outside {SE_TOLERANCE} SE; "
        f"largest gap {worst[0]}: mc {worst[1]:.4f} vs exact {worst[2]:.4f}",
    )


# ---------------------------------------------------------------------------
# suite runner


_CRITERIA = {
    "AC-1": ac1_exact_cliques,
    "AC-2": ac2_clique_monte_carlo,
    "AC-3": ac3_per_vertex_bounds,
    "AC-4": ac4_adversarial_bipartite,
    "AC-5": ac5_component_drift,
    "AC-6": ac6_adversarial_stopping,
    "AC-7": ac7_edge_drift,
    "AC-8": ac8_mimic_equivalence,
    "AC-9": ac9_gadget_deltas,
    "AC-10": ac10_oracle_simulation_agreement,
}

SUITES = {
    "clique": ("AC-1", "AC-2"),
    "pervertex": ("AC-3",),
    "bipartite": ("AC-4",),
    "drift": ("AC-5", "AC-7"),
    "stopping": ("AC-6",),
    "mimic": ("AC-8",),
    "gadget": ("AC-9",),
    "coherence": ("AC-10",),
    "all": tuple(_CRITERIA),
}


def run_criterion(name: str) -> CriterionResult:
    fn = _CRITERIA.get(name)
    if fn is None:
        raise ValueError(f"unknown criterion {name!r}")
    t0 = time.perf_counter()
    result = fn()
    result.seconds = time.perf_counter() - t0
    return result


@dataclass
class AcceptanceReport:
    suite: str
    results: list[CriterionResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    @property
    def verdict(self) -> str:
        failed = [r.name for r in self.results if not r.passed]
        return f"RESULT: FAIL ({', '.join(failed)})" if failed else "RESULT: PASS"

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "criteria": [asdict(r) for r in self.results],
        }


def accept(suite: str = "all",
           on_result: Callable[[CriterionResult], None] | None = None) -> AcceptanceReport:
    """Run a suite's criteria in order; on_result sees each result as it finishes."""
    names = SUITES.get(suite)
    if names is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for name in names:
        results.append(run_criterion(name))
        if on_result is not None:
            on_result(results[-1])
    return AcceptanceReport(suite, results)
