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
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

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
    SchedulerPolicy,
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
        for name in ("exclude_cap_hits", "per_trial"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.counters, (list, tuple)):
            raise ValueError(f"counters must be a list of counter names, got {self.counters!r}")
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
        return cls(**data)

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


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int(value: Any) -> int:
    """An integral number that is not a bool; anything else is a TypeError."""
    if not _is_int(value):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _real(value: Any) -> float:
    """A real number that is not a bool; anything else is a TypeError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"not a real number: {value!r}")
    return float(value)


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _int_list(values: Any) -> list[int]:
    return [_int(v) for v in values]


def _edge_list(values: Any) -> list[tuple[int, ...]]:
    return [tuple(_int_list(e)) for e in values]


def _read_int_file(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return [int(tok) for tok in fh.read().split()]


# ---------------------------------------------------------------------------
# spec kinds

# Every graph, start and order kind with its parameters, in the order the
# compact text `kind:a,b` gives them (see cli.parse_spec).
SPEC_KINDS = {
    "graph": {
        "clique": ("n",),
        "bipartite": ("a", "b"),
        "cycle": ("n",),
        "erdos": ("n", "p", "seed"),
        "badbip": ("delta",),
        "fig2": (),
        "file": ("path",),
        "edges": ("n", "edges"),
    },
    "start": {"fixed": ("colors",), "file": ("path",), "mono": ("color",)},
    "order": {"perm": ("order",), "mimic": ("mode",), "script": ("picks",)},
}
# each parameter's check on a config value, and how compact text reads it;
# a kind with a parameter that has no reader exists only in config files
SPEC_PARAMS: dict[str, tuple[Callable[[Any], Any], Callable[[str], Any] | None]] = {
    "n": (_int, int), "a": (_int, int), "b": (_int, int), "seed": (_int, int),
    "delta": (_int, int), "color": (_int, int), "p": (_real, float),
    "path": (_str, str), "mode": (_str, str),
    "order": (_int_list, _read_int_file), "picks": (_int_list, _read_int_file),
    "colors": (_int_list, None), "edges": (_edge_list, None),
}
SPEC_DEFAULTS = {"color": 1, "mode": "uniform"}
# the specs that are a bare word, not a kind with parameters
SPEC_WORDS = {
    "graph": (),
    "start": ("random", "construction"),
    "order": ("uniform", *(s.value for s in AdversaryStrategy if s is not AdversaryStrategy.Scripted)),
}


def _spec_params(family: str, spec: Any) -> tuple[str, dict]:
    """spec's kind and parameters, checked against SPEC_KINDS[family]; an
    unknown kind, or a missing, unknown or ill-typed parameter, is a
    ValueError."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ValueError(f"unknown {family} spec {spec!r}")
    kind = spec["kind"]
    if kind not in SPEC_KINDS[family]:
        raise ValueError(f"unknown {family} kind {kind!r}")
    what = f"{family} kind {kind!r}"
    names = SPEC_KINDS[family][kind]
    extra = set(spec) - {"kind", *names}
    if extra:
        raise ValueError(f"unknown parameters for {what}: {sorted(extra)}")
    params = {}
    for name in names:
        if name not in spec and name not in SPEC_DEFAULTS:
            raise ValueError(f"{what} needs the entry {name!r}")
        value = spec.get(name, SPEC_DEFAULTS.get(name))
        try:
            params[name] = SPEC_PARAMS[name][0](value)
        except (TypeError, ValueError):
            raise ValueError(f"{what} has a bad entry {name!r}: {value!r}") from None
    return kind, params


_GRAPH_BUILDERS: dict[str, Callable[..., tuple[Graph, Coloring | None]]] = {
    "clique": lambda n: (gen_clique(n), None),
    "bipartite": lambda a, b: (gen_complete_bipartite(a, b), None),
    "cycle": lambda n: (gen_cycle(n), None),
    "erdos": lambda n, p, seed: (gen_erdos_renyi(n, p, seed), None),
    "badbip": bad_bipartite_start,
    "fig2": lambda: gen_fig2_like()[:2],
    "file": lambda path: (read_graph_file(path), None),
    "edges": lambda n, edges: (from_edge_list(n, edges), None),
}


def build_graph(spec: dict) -> tuple[Graph, Coloring | None]:
    """Instantiate a graph spec; some kinds bundle a start coloring."""
    kind, params = _spec_params("graph", spec)
    return _GRAPH_BUILDERS[kind](**params)


def resolve_palette(spec_d: int | None, g: Graph, bundled: Coloring | None) -> int:
    if spec_d is not None:
        if spec_d < 1:
            raise ValueError(f"D must be >= 1, got {spec_d}")
        return int(spec_d)
    if bundled is not None:
        return bundled.palette_size
    return g.max_degree + 1


def build_start(spec: Any, g: Graph, D: int, bundled: Coloring | None) -> Coloring | None:
    if spec == "random":
        return None
    if spec == "construction":
        if bundled is None:
            raise ValueError("start 'construction' needs a graph kind that bundles a coloring")
        return bundled
    kind, p = _spec_params("start", spec)
    if kind == "fixed":
        return Coloring(p["colors"], D)
    if kind == "file":
        c = read_coloring_file(p["path"])
        if c.palette_size != D:
            raise ValueError(
                f"start file has palette D={c.palette_size} but the run uses "
                f"D={D}; pass --colors {c.palette_size} to match it"
            )
        return c
    if not (1 <= p["color"] <= D):
        raise ValueError(f"mono start color {p['color']} outside 1..{D}")
    return Coloring([p["color"]] * g.n, D)


def build_order(spec: Any, g: Graph) -> SchedulerPolicy:
    if spec == "uniform":
        return UNIFORM_ORDER
    if spec in SPEC_WORDS["order"]:
        return AdversaryOrder(AdversaryStrategy(spec))
    kind, p = _spec_params("order", spec)
    if kind == "perm":
        if len(p["order"]) != g.n:
            raise ValueError(f"order kind 'perm' has {len(p['order'])} entries "
                             f"but the graph has n={g.n}")
        return FixedPermutationOrder(p["order"])
    if kind == "mimic":
        return AdversaryOrder(AdversaryStrategy.MimicPersistent, mode=p["mode"])
    return AdversaryOrder(AdversaryStrategy.Scripted, script=p["picks"])


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class SummaryStats:
    """Normal-approximation summary of one counter over all trials; with no
    trial behind it every statistic, min and max included, is nan."""

    trials: int
    mean: float
    std: float
    se: float
    ci99_low: float
    ci99_high: float
    min: int | float
    max: int | float
    cap_hits: int

    @classmethod
    def from_values(cls, values: np.ndarray, cap_hits: int) -> "SummaryStats":
        t = int(values.size)
        if not t:  # no trial behind the counter: no statistic either
            return cls(t, *[math.nan] * 7, cap_hits)
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if t > 1 else 0.0
        se = std / math.sqrt(t)
        return cls(
            trials=t,
            mean=mean,
            std=std,
            se=se,
            ci99_low=mean - Z_99 * se,
            ci99_high=mean + Z_99 * se,
            min=int(values.min()),
            max=int(values.max()),
            cap_hits=cap_hits,
        )

    def to_dict(self) -> dict:
        """The JSON form; with no trial behind them the statistics are null."""
        stats = {
            "mean": self.mean,
            "std": self.std,
            "se": self.se,
            "ci99": [self.ci99_low, self.ci99_high],
            "min": self.min,
            "max": self.max,
        }
        return {"trials": self.trials, **(stats if self.trials else dict.fromkeys(stats)),
                "cap_hits": self.cap_hits}


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
            doc["per_vertex"] = [asdict(r) for r in self.per_vertex]
        return doc


# ---------------------------------------------------------------------------
# trial execution


def _build(cfg: ExperimentConfig) -> tuple[Graph, int, Coloring | None, SchedulerPolicy]:
    """cfg's graph, palette, start and order, validated."""
    g, bundled = build_graph(cfg.graph)
    D = resolve_palette(cfg.D, g, bundled)
    # per-run state lives in the engine; the one policy cache, the min-drift
    # order's DriftState, checks every coloring it is handed
    return g, D, build_start(cfg.start, g, D, bundled), build_order(cfg.order, g)


def _in_kernel(cfg: ExperimentConfig, g: Graph, D: int, order: SchedulerPolicy, trials: int) -> bool:
    """Whether a range of `trials` of cfg's trials runs in a lockstep kernel:
    uniform order on a graph (and palette) the algorithm's kernel fits, and
    for one-draw trials a range of at least `lockstep.MIN_RANGE`."""
    persistent = cfg.algorithm == "persistent"
    return (isinstance(order, UniformRandomOrder) and lockstep.fits(g, D, persistent)
            and (persistent or trials >= lockstep.MIN_RANGE))


def _chunks(trials: int, workers: int, kernel: bool) -> list[tuple[int, int]]:
    """The [lo, hi) ranges a worker pool runs: about four per worker, of at
    least 64 trials, or twice `lockstep.MIN_RANGE` in a kernel. With 600 to
    2000 trials on two workers, one-draw ranges of at least MIN_RANGE took
    1.08-1.64 times as long as ranges of at least twice that, on K8, C8 from
    a mono start and K64. Ranges never change a result."""
    chunk = max(2 * lockstep.MIN_RANGE if kernel else 64, -(-trials // (workers * 4)))
    return [(i, min(i + chunk, trials)) for i in range(0, trials, chunk)]


def trial_passes(cfg: ExperimentConfig, built: tuple[Graph, int, Coloring | None, SchedulerPolicy],
                 lo: int, hi: int):
    """Run trials [lo, hi) of cfg on built = `_build(cfg)`, a pass at a time.

    A pass holds `lockstep.PASS_ENTRIES` // (n + 1) trials (persistent:
    `lockstep.PERSISTENT_PASS_ENTRIES`), at least one. When a lockstep kernel
    takes the trials (`_in_kernel`) it runs the pass first and this one
    scalar loop runs the trials it hands back; otherwise the loop runs the
    whole pass. Both write identical trials into the pass's arrays, made
    here. Yields per pass (step3 draws, selections, terminated, per-vertex
    draws with one row per trial, or None unless cfg counts per_vertex).
    """
    g, D, start, order = built
    persistent = cfg.algorithm == "persistent"
    kernel = _in_kernel(cfg, g, D, order, hi - lo)
    want_vertex = "per_vertex" in cfg.counters
    runner = run_persistent if persistent else run_decentralized
    cap = default_step_cap(g.n, D) if cfg.step_cap is None else cfg.step_cap
    entries = lockstep.PERSISTENT_PASS_ENTRIES if persistent else lockstep.PASS_ENTRIES
    per_pass = max(entries // (g.n + 1), 1)
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded in place for every trial
    for a in range(lo, hi, per_pass):
        T = min(per_pass, hi - a)
        step3, selections = np.zeros((2, T), dtype=np.int64)
        terminated = np.ones(T, dtype=bool)
        rows = np.zeros((T, g.n), dtype=np.int64) if kernel or want_vertex else None
        trials = range(a, a + T)
        if kernel:
            rerun = lockstep.run_pass(g, D, start, cfg.master_seed, a, cap, persistent, gen,
                                      (step3, selections, terminated, rows))
            trials = (a + rerun).tolist()
        for i in trials:
            r = runner(g, D, start, order, trial_rng(cfg.master_seed, i, gen), step_cap=cfg.step_cap)
            k = i - a
            step3[k], selections[k], terminated[k] = r.step3_draws, r.selections, r.terminated
            if want_vertex:
                rows[k] = r.per_vertex_draws
        yield step3, selections, terminated, rows if want_vertex else None


def _run_range(cfg: ExperimentConfig, built: tuple[Graph, int, Coloring | None, SchedulerPolicy],
               lo: int, hi: int):
    """Run trials [lo, hi) of cfg on built = `_build(cfg)` (see `trial_passes`).

    Returns (step3 draws, selections, terminated, per-vertex sum, per-vertex
    sum of squares); the last two stay zero unless cfg counts per_vertex.
    """
    columns = []
    vertex_sum, vertex_sumsq = np.zeros((2, built[0].n), dtype=np.int64)
    for *pass_columns, rows in trial_passes(cfg, built, lo, hi):
        columns.append(pass_columns)
        if rows is not None:
            vertex_sum += rows.sum(axis=0)
            vertex_sumsq += np.einsum("ij,ij->j", rows, rows)
            del rows  # freed before the next pass runs
    step3, selections, terminated = (np.concatenate(column) for column in zip(*columns))
    return step3, selections, terminated, vertex_sum, vertex_sumsq


def run_trials(cfg: ExperimentConfig) -> TrialsResult:
    """Execute all trials and aggregate; deterministic for a fixed config.

    The graph, palette, start and order are built once, here, before any
    worker starts; pool workers run ranges of that same instance, so a file
    graph or start is read once per run. Writes CSV/JSON next to cfg.output
    when it is set (see write_outputs).
    """
    built = _build(cfg)
    g, D = built[0], built[1]

    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    if workers <= 1 or cfg.trials < 256:
        parts = [_run_range(cfg, built, 0, cfg.trials)]
    else:
        bounds = _chunks(cfg.trials, workers, _in_kernel(cfg, g, D, built[3], cfg.trials))
        los, his = zip(*bounds)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, [cfg] * len(bounds), [built] * len(bounds), los, his))

    columns = list(zip(*parts))  # each column holds every range's part, in trial order
    step3, selections, terminated = (np.concatenate(column) for column in columns[:3])
    total = step3 + g.n  # total_draws = n + step3_draws, see RunResult
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
        vsum, vsumsq = sum(columns[3]), sum(columns[4])
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


def output_stem(output: str) -> str:
    """The stem a run's files take: output resolved under
    $DECOLOR_OUTPUT_DIR, less a .csv or .json extension."""
    path = resolve_output_path(output)
    stem, ext = os.path.splitext(path)
    return stem if ext in (".csv", ".json") else path


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line, then one line per row; each value as its str()."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _columns(row_type: type) -> list[str]:
    return [f.name for f in fields(row_type)]


def write_outputs(result: TrialsResult, output: str) -> list[str]:
    """Write <stem>.csv and <stem>.json (plus optional per-trial/vertex CSVs)."""
    stem = output_stem(output)
    cfg, h = result.config, result.config_hash
    head = (h, cfg.master_seed, cfg.algorithm, result.n, result.max_degree, result.D)
    files = {
        ".csv": _csv_text(
            ["config_hash", "master_seed", "algorithm", "n", "max_degree", "D", "counter",
             *_columns(SummaryStats)],
            [(*head, counter, *astuple(s)) for counter, s in result.stats.items()]),
        ".json": _json_dumps(result.to_json_dict()),
    }
    if result.per_vertex is not None:
        files[".vertices.csv"] = _csv_text(
            ["config_hash", *_columns(PerVertexRow)],
            [(h, *astuple(r)) for r in result.per_vertex])
    if cfg.per_trial:
        files[".trials.csv"] = _csv_text(
            ["config_hash", "trial", "total_draws", "step3_draws", "selections", "terminated"],
            zip([h] * cfg.trials, range(cfg.trials), result.total_draws.tolist(),
                result.step3_draws.tolist(), result.selections.tolist(),
                result.terminated.astype(int).tolist()))
    for ext, text in files.items():
        _write_text(stem + ext, text)
    return [stem + ext for ext in files]


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 with \\n line ends, creating its parent
    directory; every file the CLI writes goes through here."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# sweeps


_SWEEP_AXES = {"D", "trials", "master_seed"}


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    data = cfg.to_dict()
    if axis.startswith("graph."):
        key = axis.split(".", 1)[1]
        kind, params = _spec_params("graph", data["graph"])
        if key not in params:
            raise ValueError(f"graph kind {kind!r} has no parameter {key!r} to sweep")
        data["graph"] = {**data["graph"], key: value}
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
    return _csv_text(_columns(SweepRow), [astuple(r) for r in rows])


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
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if d_max < 2:
        raise ValueError("need d_max >= 2")
    if n_max < 2:
        raise ValueError("need n_max >= 2 to build a conflict")
    rng = np.random.default_rng(seed)
    warnings: list[str] = []
    if samples == 0:
        warnings.append("empty sample set: drift bounds hold vacuously")

    # the gadget is sample 0, and the pass reads its drift at the focus
    g2, c2, focus = gen_fig2_like()
    gadget_drift = Fraction(0)
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
            if si == 0 and v == focus:
                gadget_drift = phi
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
        gadget_tight=gadget_drift == Fraction(1, c2.palette_size),
        violations=violations,
        warnings=warnings,
    )
