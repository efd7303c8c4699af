"""Configuration-driven trial runner, statistics, sweeps, and drift checks.

Outputs are byte-identical for identical (config, master seed): rows carry a
short hash of the result-determining config fields, files contain no
timestamps, and trials are reduced in trial-index order regardless of how
many workers ran them.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import lockstep, oracle as _oracle
from .adversary import AdversaryStrategy, bad_bipartite_start, phi_drift_numerators
from .coloring import (
    Coloring,
    conflicted_vertices,
    is_proper,
    random_coloring,
    read_coloring_file,
)
from .engine import (
    AdversaryOrder,
    FixedPermutationOrder,
    FixedStart,
    RANDOM_START,
    SchedulerPolicy,
    StartPolicy,
    UNIFORM_ORDER,
    UniformRandomOrder,
    default_step_cap,
    run_decentralized,
    run_persistent,
)
from .graphs import (
    Graph,
    from_edge_list,
    gen_clique,
    gen_complete_bipartite,
    gen_cycle,
    gen_erdos_renyi,
    gen_fig2_like,
    read_graph_file,
)
from .rng import STREAM_VERSION, trial_rng

OUTPUT_DIR_ENV = "DECOLOR_OUTPUT_DIR"
Z_99 = 2.576
SCALAR_COUNTERS = ("total_draws", "step3_draws")
VALID_COUNTERS = SCALAR_COUNTERS + ("per_vertex",)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Everything a batch of trials depends on, plus output switches.

    graph/start/order are JSON-style specs; see the README for the schema.
    D = None means "max degree + 1 of the instantiated graph".
    """

    graph: dict
    algorithm: str = "dc"
    D: int | None = None
    start: Any = "random"
    order: Any = "uniform"
    trials: int = 100_000
    master_seed: int = 0
    step_cap: int | None = None
    output: str | None = None
    counters: tuple[str, ...] = ("total_draws", "step3_draws")
    exclude_cap_hits: bool = False
    per_trial: bool = False
    workers: int | None = None

    def __post_init__(self) -> None:
        for name in ("trials", "master_seed", "D", "step_cap", "workers"):
            value = getattr(self, name)
            if value is None and name in ("D", "step_cap", "workers"):
                continue
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.algorithm not in ("dc", "persistent"):
            raise ValueError(f"algorithm must be 'dc' or 'persistent', got {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.step_cap is not None and self.step_cap < 0:
            raise ValueError(f"step_cap must be >= 0, got {self.step_cap}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.counters = tuple(self.counters)
        for counter in self.counters:
            if counter not in VALID_COUNTERS:
                raise ValueError(f"unknown counter {counter!r}")
        if not any(c in SCALAR_COUNTERS for c in self.counters):
            raise ValueError("at least one of total_draws/step3_draws must be reported")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "graph" not in data:
            raise ValueError("config needs a 'graph' entry")
        kwargs = dict(data)
        if "counters" in kwargs:
            kwargs["counters"] = tuple(kwargs["counters"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["counters"] = list(self.counters)
        return d

    def identity_dict(self) -> dict:
        """The fields that determine results (not where they are written),
        plus the random-stream layout version they were produced under."""
        d = self.to_dict()
        for key in ("output", "per_trial", "workers", "counters"):
            d.pop(key)
        d["stream_version"] = STREAM_VERSION
        return d


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.identity_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]


def _field(spec: dict, name: str, conv: Callable[[Any], Any], what: str) -> Any:
    """spec[name] passed through conv; a missing or ill-typed entry is a ValueError."""
    if name not in spec:
        raise ValueError(f"{what} needs the entry {name!r}")
    try:
        return conv(spec[name])
    except (TypeError, ValueError):
        raise ValueError(f"{what} has a bad entry {name!r}: {spec[name]!r}") from None


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int(value: Any) -> int:
    """An integral number that is not a bool; anything else is a TypeError."""
    if not _is_int(value):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _int_list(values: Any) -> list[int]:
    return [_int(v) for v in values]


def _edge_list(values: Any) -> list[tuple[int, ...]]:
    return [tuple(_int_list(e)) for e in values]


def build_graph(spec: dict) -> tuple[Graph, Coloring | None]:
    """Instantiate a graph spec; some kinds bundle a start coloring."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("graph spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    params = {k: v for k, v in spec.items() if k != "kind"}

    def take(names: set[str]) -> None:
        extra = set(params) - names
        if extra:
            raise ValueError(f"unknown parameters for graph kind {kind!r}: {sorted(extra)}")

    def get(name: str, conv: Callable[[Any], Any] = _int) -> Any:
        return _field(params, name, conv, f"graph kind {kind!r}")

    if kind == "clique":
        take({"n"})
        return gen_clique(get("n")), None
    if kind == "bipartite":
        take({"a", "b"})
        return gen_complete_bipartite(get("a"), get("b")), None
    if kind == "cycle":
        take({"n"})
        return gen_cycle(get("n")), None
    if kind == "erdos":
        take({"n", "p", "seed"})
        return gen_erdos_renyi(get("n"), get("p", float), get("seed")), None
    if kind == "badbip":
        take({"delta"})
        g, c = bad_bipartite_start(get("delta"))
        return g, c
    if kind == "fig2":
        take(set())
        g, c, _focus = gen_fig2_like()
        return g, c
    if kind == "file":
        take({"path"})
        return read_graph_file(get("path", str)), None
    if kind == "edges":
        take({"n", "edges"})
        return from_edge_list(get("n"), get("edges", _edge_list)), None
    raise ValueError(f"unknown graph kind {kind!r}")


def resolve_palette(spec_d: int | None, g: Graph, bundled: Coloring | None) -> int:
    if spec_d is not None:
        if spec_d < 1:
            raise ValueError(f"D must be >= 1, got {spec_d}")
        return int(spec_d)
    if bundled is not None:
        return bundled.palette_size
    return g.max_degree + 1


def build_start(spec: Any, g: Graph, D: int, bundled: Coloring | None) -> StartPolicy:
    if spec == "random":
        return RANDOM_START
    if spec == "construction":
        if bundled is None:
            raise ValueError("start 'construction' needs a graph kind that bundles a coloring")
        return FixedStart(bundled)
    if isinstance(spec, dict) and "kind" in spec:
        kind = spec["kind"]
        what = f"start kind {kind!r}"
        if kind == "fixed":
            return FixedStart(Coloring(_field(spec, "colors", _int_list, what), D))
        if kind == "file":
            c = read_coloring_file(_field(spec, "path", str, what))
            return FixedStart(Coloring(c.colors, D))
        if kind == "mono":
            color = _field({"color": 1, **spec}, "color", _int, what)
            if not (1 <= color <= D):
                raise ValueError(f"mono start color {color} outside 1..{D}")
            return FixedStart(Coloring([color] * g.n, D))
    raise ValueError(f"unknown start spec {spec!r}")


def build_order(spec: Any, g: Graph) -> SchedulerPolicy:
    if spec == "uniform":
        return UNIFORM_ORDER
    if spec == "min-drift":
        return AdversaryOrder(AdversaryStrategy.MinPhiDrift)
    if spec == "max-conflicted":
        return AdversaryOrder(AdversaryStrategy.MaxConflicted)
    if spec == "mimic":
        return AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="uniform")
    if isinstance(spec, dict) and "kind" in spec:
        kind = spec["kind"]
        what = f"order kind {kind!r}"
        if kind == "perm":
            return FixedPermutationOrder(_field(spec, "order", _int_list, what))
        if kind == "mimic":
            return AdversaryOrder(
                AdversaryStrategy.MimicPersistent, mode=spec.get("mode", "uniform")
            )
        if kind == "script":
            return AdversaryOrder(
                AdversaryStrategy.Scripted, script=_field(spec, "picks", _int_list, what)
            )
    raise ValueError(f"unknown order spec {spec!r}")


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class SummaryStats:
    """Normal-approximation summary of one counter over all trials."""

    trials: int
    mean: float
    std: float
    se: float
    ci99_low: float
    ci99_high: float
    min: int
    max: int
    cap_hits: int

    @classmethod
    def from_values(cls, values: np.ndarray, cap_hits: int) -> "SummaryStats":
        t = int(values.size)
        mean = float(values.mean()) if t else math.nan
        std = float(values.std(ddof=1)) if t > 1 else 0.0
        se = std / math.sqrt(t) if t else math.nan
        return cls(
            trials=t,
            mean=mean,
            std=std,
            se=se,
            ci99_low=mean - Z_99 * se,
            ci99_high=mean + Z_99 * se,
            min=int(values.min()) if t else 0,
            max=int(values.max()) if t else 0,
            cap_hits=cap_hits,
        )

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "mean": self.mean,
            "std": self.std,
            "se": self.se,
            "ci99": [self.ci99_low, self.ci99_high],
            "min": self.min,
            "max": self.max,
            "cap_hits": self.cap_hits,
        }


@dataclass
class PerVertexRow:
    vertex: int
    degree: int
    mean: float
    std: float
    se: float


@dataclass
class TrialsResult:
    config: ExperimentConfig
    config_hash: str
    n: int
    max_degree: int
    D: int
    stats: dict[str, SummaryStats]
    per_vertex: list[PerVertexRow] | None
    cap_hits: int
    warnings: list[str]
    total_draws: np.ndarray
    step3_draws: np.ndarray
    selections: np.ndarray
    terminated: np.ndarray

    def to_json_dict(self) -> dict:
        doc = {
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "graph": {"n": self.n, "max_degree": self.max_degree},
            "D": self.D,
            "results": {k: v.to_dict() for k, v in self.stats.items()},
            "warnings": self.warnings,
        }
        if self.per_vertex is not None:
            doc["per_vertex"] = [
                {
                    "vertex": r.vertex,
                    "degree": r.degree,
                    "mean": r.mean,
                    "std": r.std,
                    "se": r.se,
                }
                for r in self.per_vertex
            ]
        return doc


# ---------------------------------------------------------------------------
# trial execution


def _build(cfg: ExperimentConfig) -> tuple[Graph, int, StartPolicy, SchedulerPolicy]:
    """cfg's graph, palette, start and order, validated."""
    g, bundled = build_graph(cfg.graph)
    D = resolve_palette(cfg.D, g, bundled)
    # policies are stateless; per-run state lives in the engine
    return g, D, build_start(cfg.start, g, D, bundled), build_order(cfg.order, g)


def _in_kernel(cfg: ExperimentConfig, g: Graph, D: int, order: SchedulerPolicy) -> bool:
    """Whether cfg's trials run in a lockstep kernel: uniform order on a graph
    (and palette) the algorithm's kernel fits."""
    if not isinstance(order, UniformRandomOrder):
        return False
    return lockstep.fits(g) if cfg.algorithm == "dc" else lockstep.persistent_fits(g, D)


def _chunks(trials: int, workers: int, kernel: bool) -> list[tuple[int, int]]:
    """The [lo, hi) ranges a worker pool runs: about four per worker, of at
    least 64 trials, or 512 in a kernel, which is slower than the scalar
    engine on shorter ranges. Ranges never change a result."""
    chunk = max(512 if kernel else 64, -(-trials // (workers * 4)))
    return [(i, min(i + chunk, trials)) for i in range(0, trials, chunk)]


def _run_range(
    cfg: ExperimentConfig,
    lo: int,
    hi: int,
    built: tuple[Graph, int, StartPolicy, SchedulerPolicy] | None = None,
):
    """Run trials [lo, hi); returns plain lists so it can cross processes.

    built is `_build(cfg)` when the caller has it already; pool workers pass
    None and rebuild it from the spec. Uniform-order trials that a lockstep
    kernel takes (`_in_kernel`) run there, all others in the scalar engine,
    one trial at a time; both give identical trials.
    """
    g, D, start, order = _build(cfg) if built is None else built
    want_vertex = "per_vertex" in cfg.counters
    if _in_kernel(cfg, g, D, order):
        cap = default_step_cap(g.n, D) if cfg.step_cap is None else cfg.step_cap
        args = (g, D, start, cfg.master_seed, lo, hi, cap)
        if cfg.algorithm == "dc":
            step3, terminated, per_vertex = lockstep.run_range(*args)
            selections = step3
        else:
            step3, selections, terminated, per_vertex = lockstep.run_persistent_range(*args)
        return (
            step3.tolist(),
            selections.tolist(),
            terminated.tolist(),
            per_vertex.sum(axis=0).tolist() if want_vertex else None,
            np.einsum("ij,ij->j", per_vertex, per_vertex).tolist() if want_vertex else None,
        )
    runner = run_decentralized if cfg.algorithm == "dc" else run_persistent
    step3 = []
    selections = []
    terminated = []
    vertex_sum = np.zeros(g.n, dtype=np.int64) if want_vertex else None
    vertex_sumsq = np.zeros(g.n, dtype=np.int64) if want_vertex else None
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded in place for every trial
    for i in range(lo, hi):
        r = runner(g, D, start, order, trial_rng(cfg.master_seed, i, gen), step_cap=cfg.step_cap)
        step3.append(r.step3_draws)
        selections.append(r.selections)
        terminated.append(r.terminated)
        if want_vertex:
            vec = np.asarray(r.per_vertex_draws, dtype=np.int64)
            vertex_sum += vec
            vertex_sumsq += vec * vec
    return (
        step3,
        selections,
        terminated,
        None if vertex_sum is None else vertex_sum.tolist(),
        None if vertex_sumsq is None else vertex_sumsq.tolist(),
    )


def _run_range_packed(args: tuple) -> tuple:
    cfg_dict, lo, hi = args
    return _run_range(ExperimentConfig.from_dict(cfg_dict), lo, hi)


def run_trials(cfg: ExperimentConfig) -> TrialsResult:
    """Execute all trials and aggregate; deterministic for a fixed config.

    Writes CSV/JSON next to cfg.output when it is set (see write_outputs).
    """
    built = _build(cfg)  # validates before any worker starts
    g, D = built[0], built[1]

    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    if workers <= 1 or cfg.trials < 256:
        parts = [_run_range(cfg, 0, cfg.trials, built)]
    else:
        bounds = _chunks(cfg.trials, workers, _in_kernel(cfg, g, D, built[3]))
        packed = [(cfg.to_dict(), lo, hi) for lo, hi in bounds]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range_packed, packed))

    step3 = np.concatenate([np.asarray(p[0], dtype=np.int64) for p in parts])
    total = step3 + g.n  # total_draws = n + step3_draws, see RunResult
    selections = np.concatenate([np.asarray(p[1], dtype=np.int64) for p in parts])
    terminated = np.concatenate([np.asarray(p[2], dtype=bool) for p in parts])
    cap_hits = int((~terminated).sum())

    warnings: list[str] = []
    keep = np.ones(cfg.trials, dtype=bool)
    if cap_hits and cfg.exclude_cap_hits:
        keep = terminated.copy()
        warnings.append(f"{cap_hits} trial(s) hit the step cap and were excluded from the means")
    elif cap_hits:
        warnings.append(f"{cap_hits} trial(s) hit the step cap; their counts are included")

    stats: dict[str, SummaryStats] = {}
    for name, values in (("total_draws", total), ("step3_draws", step3)):
        if name in cfg.counters:
            stats[name] = SummaryStats.from_values(values[keep], cap_hits)

    per_vertex: list[PerVertexRow] | None = None
    if "per_vertex" in cfg.counters:
        vsum = np.zeros(g.n, dtype=np.int64)
        vsumsq = np.zeros(g.n, dtype=np.int64)
        for p in parts:
            vsum += np.asarray(p[3], dtype=np.int64)
            vsumsq += np.asarray(p[4], dtype=np.int64)
        t = cfg.trials
        means = vsum / t
        variances = (vsumsq - t * means * means) / (t - 1) if t > 1 else np.zeros(g.n)
        variances = np.maximum(variances, 0.0)
        stds = np.sqrt(variances)
        ses = stds / math.sqrt(t)
        per_vertex = [
            PerVertexRow(v, g.degree(v), float(means[v]), float(stds[v]), float(ses[v]))
            for v in range(g.n)
        ]
        if cfg.exclude_cap_hits and cap_hits:
            warnings.append("per-vertex table always includes cap-hit trials")

    result = TrialsResult(
        config=cfg,
        config_hash=config_hash(cfg),
        n=g.n,
        max_degree=g.max_degree,
        D=D,
        stats=stats,
        per_vertex=per_vertex,
        cap_hits=cap_hits,
        warnings=warnings,
        total_draws=total,
        step3_draws=step3,
        selections=selections,
        terminated=terminated,
    )
    if cfg.output:
        write_outputs(result, cfg.output)
    return result


# ---------------------------------------------------------------------------
# output files


def resolve_output_path(path: str) -> str:
    """Relative outputs land in $DECOLOR_OUTPUT_DIR when it is set."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _strip_known_extension(path: str) -> str:
    stem, ext = os.path.splitext(path)
    return stem if ext in (".csv", ".json") else path


def write_outputs(result: TrialsResult, output: str) -> list[str]:
    """Write <stem>.csv and <stem>.json (plus optional per-trial/vertex CSVs)."""
    stem = _strip_known_extension(resolve_output_path(output))
    os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
    paths = []

    csv_path = stem + ".csv"
    header = (
        "config_hash,master_seed,algorithm,n,max_degree,D,counter,trials,"
        "mean,std,se,ci99_low,ci99_high,min,max,cap_hits"
    )
    lines = [header]
    cfg = result.config
    for counter, s in result.stats.items():
        lines.append(
            f"{result.config_hash},{cfg.master_seed},{cfg.algorithm},{result.n},"
            f"{result.max_degree},{result.D},{counter},{s.trials},{s.mean!r},{s.std!r},"
            f"{s.se!r},{s.ci99_low!r},{s.ci99_high!r},{s.min},{s.max},{s.cap_hits}"
        )
    _write_text(csv_path, "\n".join(lines) + "\n")
    paths.append(csv_path)

    json_path = stem + ".json"
    _write_text(json_path, _json_dumps(result.to_json_dict()))
    paths.append(json_path)

    if result.per_vertex is not None:
        pv_path = stem + ".vertices.csv"
        lines = ["config_hash,vertex,degree,mean,std,se"]
        for r in result.per_vertex:
            lines.append(
                f"{result.config_hash},{r.vertex},{r.degree},{r.mean!r},{r.std!r},{r.se!r}"
            )
        _write_text(pv_path, "\n".join(lines) + "\n")
        paths.append(pv_path)

    if cfg.per_trial:
        pt_path = stem + ".trials.csv"
        lines = ["config_hash,trial,total_draws,step3_draws,selections,terminated"]
        for i in range(cfg.trials):
            lines.append(
                f"{result.config_hash},{i},{result.total_draws[i]},{result.step3_draws[i]},"
                f"{result.selections[i]},{int(result.terminated[i])}"
            )
        _write_text(pt_path, "\n".join(lines) + "\n")
        paths.append(pt_path)
    return paths


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweeps


_SWEEP_AXES = {"D", "trials", "master_seed"}


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    data = cfg.to_dict()
    if axis.startswith("graph."):
        key = axis.split(".", 1)[1]
        graph = dict(data["graph"])
        if key not in graph and key != "seed":
            raise ValueError(f"graph spec has no parameter {key!r} to sweep")
        graph[key] = value
        data["graph"] = graph
    elif axis in _SWEEP_AXES:
        data[axis] = value
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return ExperimentConfig.from_dict(data)


@dataclass
class SweepRow:
    axis: str
    value: Any
    config_hash: str
    n: int
    max_degree: int
    D: int
    trials: int
    counter: str
    mean: float
    se: float
    mean_over_n_delta: float
    mean_over_n_log_delta: float


def sweep(base: ExperimentConfig, axis: str, values: Sequence) -> list[SweepRow]:
    """run_trials per axis value, with growth-rate normalizations.

    The reported counter is the first scalar counter in base.counters.
    mean/(n*max_degree) and mean/(n*ln(max_degree)) are NaN when undefined.
    """
    counter = next(c for c in base.counters if c in SCALAR_COUNTERS)
    rows = []
    for value in values:
        cfg = _apply_axis(base, axis, value)
        cfg.output = None
        result = run_trials(cfg)
        s = result.stats[counter]
        nd = result.n * result.max_degree
        nlogd = result.n * math.log(result.max_degree) if result.max_degree > 1 else 0.0
        rows.append(
            SweepRow(
                axis=axis,
                value=value,
                config_hash=result.config_hash,
                n=result.n,
                max_degree=result.max_degree,
                D=result.D,
                trials=cfg.trials,
                counter=counter,
                mean=s.mean,
                se=s.se,
                mean_over_n_delta=s.mean / nd if nd else math.nan,
                mean_over_n_log_delta=s.mean / nlogd if nlogd else math.nan,
            )
        )
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    header = (
        "axis,value,config_hash,n,max_degree,D,trials,counter,mean,se,"
        "mean_over_n_delta,mean_over_n_log_delta"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.axis},{r.value},{r.config_hash},{r.n},{r.max_degree},{r.D},{r.trials},"
            f"{r.counter},{r.mean!r},{r.se!r},{r.mean_over_n_delta!r},"
            f"{r.mean_over_n_log_delta!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# drift check


@dataclass
class DriftViolation:
    sample: int
    vertex: int
    kind: str
    value: Fraction


@dataclass
class DriftReport:
    samples: int
    vertices_checked: int
    min_phi_drift: Fraction | None
    max_edge_drift: Fraction | None
    gadget_drift: Fraction
    gadget_tight: bool
    violations: list[DriftViolation]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        def frac(x: Fraction | None):
            return None if x is None else {"p": x.numerator, "q": x.denominator, "float": float(x)}

        return {
            "samples": self.samples,
            "vertices_checked": self.vertices_checked,
            "min_phi_drift": frac(self.min_phi_drift),
            "max_edge_drift": frac(self.max_edge_drift),
            "gadget_drift": frac(self.gadget_drift),
            "gadget_tight": self.gadget_tight,
            "violations": [
                {"sample": v.sample, "vertex": v.vertex, "kind": v.kind, "value": frac(v.value)}
                for v in self.violations
            ],
            "warnings": self.warnings,
            "ok": self.ok,
        }


def random_invalid_state(
    rng: np.random.Generator, n_max: int, d_max: int
) -> tuple[Graph, Coloring]:
    """Random (graph, coloring) with D >= max_degree + 1 and >= 1 conflict.

    Edges are added under a degree cap of D - 1 so the palette always beats
    the max degree; if the random coloring happens to be proper, one random
    edge is made monochromatic.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2 to build a conflict")
    n = int(rng.integers(2, n_max + 1))
    D = int(rng.integers(2, d_max + 1))
    cap = D - 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = rng.permutation(len(pairs))
    degree = [0] * n
    edges = []
    target = int(rng.integers(1, len(pairs) + 1))
    for idx in order:
        if len(edges) >= target:
            break
        u, v = pairs[idx]
        if degree[u] < cap and degree[v] < cap:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    if not edges:
        u, v = pairs[int(order[0])]
        edges.append((u, v))
    g = from_edge_list(n, edges)
    c = random_coloring(n, D, rng)
    if is_proper(g, c):
        u, v = edges[int(rng.integers(len(edges)))]
        c.colors[v] = c.colors[u]
    return g, c


def drift_check(samples: int, n_max: int = 12, d_max: int = 6, seed: int = 0) -> DriftReport:
    """Exact one-step drift audit over random invalid states.

    For every conflicted vertex of every sample the component-potential drift
    must be >= 1/D and the conflicted-edge drift <= -1/D; the fast numerator
    formula used by the min-drift adversary must match the brute-force value.
    The five-vertex gadget is always included and its drift of exactly 1/4
    (= 1/D there) is reported as tight.
    """
    if d_max < 2:
        raise ValueError("need d_max >= 2")
    rng = np.random.default_rng(seed)
    warnings: list[str] = []
    if samples == 0:
        warnings.append("empty sample set: drift bounds hold vacuously")

    g2, c2, focus = gen_fig2_like()
    gadget_drift = _oracle.exact_expected_phi_delta(g2, c2, focus).value
    gadget_tight = gadget_drift == Fraction(1, c2.palette_size)

    min_phi: Fraction | None = None
    max_edge: Fraction | None = None
    violations: list[DriftViolation] = []
    vertices_checked = 0

    states: list[tuple[Graph, Coloring]] = [(g2, c2)]
    for _ in range(samples):
        states.append(random_invalid_state(rng, n_max, d_max))

    for si, (g, c) in enumerate(states):
        D = c.palette_size
        conflicted = conflicted_vertices(g, c)
        fast_nums = phi_drift_numerators(g, c, conflicted)
        for v, num in zip(conflicted, fast_nums):
            vertices_checked += 1
            phi_delta, _, edge = _oracle.exact_expected_conflict_deltas(g, c, v)
            phi = phi_delta.value
            if phi != Fraction(num, D):
                violations.append(DriftViolation(si, v, "incremental-mismatch", phi))
            if phi < Fraction(1, D):
                violations.append(DriftViolation(si, v, "phi-drift", phi))
            if edge.value > Fraction(-1, D):
                violations.append(DriftViolation(si, v, "edge-drift", edge.value))
            if min_phi is None or phi < min_phi:
                min_phi = phi
            if max_edge is None or edge.value > max_edge:
                max_edge = edge.value
    return DriftReport(
        samples=samples,
        vertices_checked=vertices_checked,
        min_phi_drift=min_phi,
        max_edge_drift=max_edge,
        gadget_drift=gadget_drift,
        gadget_tight=gadget_tight,
        violations=violations,
        warnings=warnings,
    )
