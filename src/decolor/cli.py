"""Command-line front end: gen, run, sweep, oracle, drift-check, accept.

Exit codes: 0 success, 1 a check or acceptance criterion failed, 2 bad
usage or configuration. Relative output paths land in $DECOLOR_OUTPUT_DIR
when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, oracle
from .coloring import Coloring, coloring_to_text, write_coloring_file
from .engine import FixedStart, run_decentralized, run_persistent, trace_to_text
from .experiments import (
    ExperimentConfig,
    build_graph,
    build_order,
    build_start,
    drift_check,
    resolve_palette,
    resolve_output_path,
    run_trials,
    sweep,
    sweep_to_csv,
    _build,
    _json_dumps,
    _write_text,
)
from .graphs import graph_to_text, write_graph_file
from .rng import trial_rng


# ---------------------------------------------------------------------------
# compact spec parsing (shared by several subcommands)


def parse_graph_spec(text: str) -> dict:
    """`clique:8`, `bipartite:3,3`, `cycle:12`, `erdos:64,0.15,6415`,
    `badbip:8`, `fig2`, or `file:PATH`."""
    kind, _, rest = text.partition(":")
    args = rest.split(",") if rest else []

    def ints(k: int) -> list[int]:
        if len(args) != k:
            raise ValueError(f"graph spec {text!r}: expected {k} parameter(s)")
        return [int(a) for a in args]

    if kind == "clique":
        return {"kind": "clique", "n": ints(1)[0]}
    if kind == "bipartite":
        a, b = ints(2)
        return {"kind": "bipartite", "a": a, "b": b}
    if kind == "cycle":
        return {"kind": "cycle", "n": ints(1)[0]}
    if kind == "erdos":
        if len(args) != 3:
            raise ValueError(f"graph spec {text!r}: expected n,p,seed")
        return {"kind": "erdos", "n": int(args[0]), "p": float(args[1]), "seed": int(args[2])}
    if kind == "badbip":
        return {"kind": "badbip", "delta": ints(1)[0]}
    if kind == "fig2":
        if args:
            raise ValueError("graph spec 'fig2' takes no parameters")
        return {"kind": "fig2"}
    if kind == "file":
        if not rest:
            raise ValueError("graph spec 'file:' needs a path")
        return {"kind": "file", "path": rest}
    raise ValueError(f"unknown graph kind {kind!r}")


def _read_int_file(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return [int(tok) for tok in fh.read().split()]


def parse_order_spec(text: str) -> object:
    """`uniform`, `perm:<file>`, `mimic[:lowest]`, `min-drift`,
    `max-conflicted`, or `script:<file>`."""
    if text in ("uniform", "min-drift", "max-conflicted", "mimic"):
        return text
    kind, _, rest = text.partition(":")
    if kind == "mimic" and rest in ("uniform", "lowest"):
        return {"kind": "mimic", "mode": rest}
    if kind == "perm" and rest:
        return {"kind": "perm", "order": _read_int_file(rest)}
    if kind == "script" and rest:
        return {"kind": "script", "picks": _read_int_file(rest)}
    raise ValueError(f"unknown order spec {text!r}")


def parse_start_spec(text: str) -> object:
    """`random`, `construction`, `mono:<color>`, or `file:<path>`."""
    if text in ("random", "construction"):
        return text
    kind, _, rest = text.partition(":")
    if kind == "mono" and rest:
        return {"kind": "mono", "color": int(rest)}
    if kind == "file" and rest:
        return {"kind": "file", "path": rest}
    raise ValueError(f"unknown start spec {text!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_graph_spec(args.kind)
    g, bundled = build_graph(spec)
    if args.out:
        write_graph_file(resolve_output_path(args.out), g)
        print(f"wrote {g.n} vertices / {g.edge_count()} edges to {resolve_output_path(args.out)}")
    else:
        sys.stdout.write(graph_to_text(g))
    if args.start_out:
        if bundled is None:
            raise ValueError(f"graph kind {spec['kind']!r} has no bundled start coloring")
        write_coloring_file(resolve_output_path(args.start_out), bundled)
        print(f"wrote start coloring to {resolve_output_path(args.start_out)}")
    elif bundled is not None and not args.out:
        sys.stdout.write(coloring_to_text(bundled))
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    if args.graph is not None:
        data["graph"] = parse_graph_spec(args.graph)
    if args.algorithm is not None:
        data["algorithm"] = args.algorithm
    if args.colors is not None:
        data["D"] = args.colors
    if getattr(args, "start_file", None):
        data["start"] = {"kind": "file", "path": args.start_file}
    elif args.start is not None:
        data["start"] = parse_start_spec(args.start)
    if args.order is not None:
        data["order"] = parse_order_spec(args.order)
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.step_cap is not None:
        data["step_cap"] = args.step_cap
    if args.out is not None:
        data["output"] = args.out
    if getattr(args, "counters", None):
        data["counters"] = [c.strip() for c in args.counters.split(",")]
    if getattr(args, "per_trial", False):
        data["per_trial"] = True
    if getattr(args, "workers", None) is not None:
        data["workers"] = args.workers
    if getattr(args, "exclude_cap_hits", False):
        data["exclude_cap_hits"] = True
    return ExperimentConfig.from_dict(data)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_trials(cfg)
    print(f"config {result.config_hash} seed {cfg.master_seed}: "
          f"{cfg.algorithm} on n={result.n} (max degree {result.max_degree}), "
          f"D={result.D}, {cfg.trials} trials")
    for counter, s in result.stats.items():
        print(f"  {counter}: mean={s.mean:.6g} se={s.se:.3g} "
              f"ci99=[{s.ci99_low:.6g}, {s.ci99_high:.6g}] min={s.min} max={s.max}")
    if result.per_vertex is not None:
        top = max(result.per_vertex, key=lambda r: r.mean)
        print(f"  per_vertex: {result.n} rows, largest mean {top.mean:.6g} at v{top.vertex}")
    for w in result.warnings:
        print(f"  warning: {w}", file=sys.stderr)
    if cfg.output:
        print(f"  wrote {resolve_output_path(cfg.output)}.{{csv,json}}")
    if args.trace:
        runner = run_decentralized if cfg.algorithm == "dc" else run_persistent
        r = runner(*_build(cfg), trial_rng(cfg.master_seed, 0), step_cap=cfg.step_cap, trace=True)
        path = resolve_output_path(args.trace)
        _write_text(path, trace_to_text(r.trace))
        print(f"  wrote trial-0 trace ({r.selections} selections) to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    values = []
    for tok in args.values.split(","):
        tok = tok.strip()
        try:
            values.append(int(tok))
        except ValueError:
            values.append(float(tok))
    rows = sweep(cfg, args.axis, values)
    csv_text = sweep_to_csv(rows)
    sys.stdout.write(csv_text)
    if args.out:
        path = resolve_output_path(args.out)
        _write_text(path if path.endswith(".csv") else path + ".csv", csv_text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = parse_graph_spec(args.graph)
    g, bundled = build_graph(spec)
    D = resolve_palette(args.colors, g, bundled)
    start_spec = parse_start_spec(args.start) if args.start else "random"
    if getattr(args, "start_file", None):
        start_spec = {"kind": "file", "path": args.start_file}
    start = build_start(start_spec, g, D, bundled)

    if args.quantity == "recolorings":
        if args.algorithm == "dc":
            sched = build_order(parse_order_spec(args.order or "uniform"), g)
            value = oracle.exact_expected_recolorings_dc(g, D, start, sched, method=args.method)
        else:
            order_spec = args.order or "all"
            if order_spec in ("all", "uniform"):
                order = "all"
            elif order_spec.startswith("perm:"):
                order = _read_int_file(order_spec.partition(":")[2])
            else:
                raise ValueError("the persistent oracle supports --order all or perm:<file>")
            value = oracle.exact_expected_recolorings_persistent(g, D, start, order)
        print(value)
        if args.verbose:
            _print_oracle_diagnostics(value)
        return 0

    # one-step recoloring drifts at a conflicted vertex
    if not isinstance(start, FixedStart):
        raise ValueError("drift quantities need a fixed start (--start file:/mono:/construction)")
    c = Coloring(start.coloring.colors, D)
    if args.vertex is None:
        raise ValueError("--vertex is required for --quantity drift")
    phi, vert, edge = oracle.exact_expected_conflict_deltas(g, c, args.vertex)
    print(f"component-count drift: {phi}")
    print(f"conflicted-vertex drift: {vert}")
    print(f"conflicted-edge drift: {edge}")
    return 0


def _print_oracle_diagnostics(value: oracle.ExactValue) -> None:
    """The oracle's diagnostics on stderr, one per line; unmeasured ones are left out."""
    print(f"method: {value.method}", file=sys.stderr)
    for label, x in (("transient states", value.transient),
                     ("nonzeros of I - Q", value.nonzeros),
                     ("fill-in", value.fill),
                     ("rationals", value.backend)):
        if x is not None:
            print(f"{label}: {x}", file=sys.stderr)


def _cmd_drift_check(args: argparse.Namespace) -> int:
    rep = drift_check(args.samples, n_max=args.n_max, d_max=args.d_max, seed=args.seed)
    print(f"{rep.samples} samples, {rep.vertices_checked} conflicted vertices checked")
    print(f"min component drift {rep.min_phi_drift}, max edge drift {rep.max_edge_drift}")
    print(f"gadget drift {rep.gadget_drift} (tight at 1/D: {rep.gadget_tight})")
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for v in rep.violations:
        print(f"VIOLATION sample {v.sample} vertex {v.vertex} [{v.kind}]: {v.value}",
              file=sys.stderr)
    if args.out:
        path = resolve_output_path(args.out)
        _write_text(path if path.endswith(".json") else path + ".json",
                    _json_dumps(rep.to_json_dict()))
        print(f"wrote {path if path.endswith('.json') else path + '.json'}")
    return 0 if rep.ok else 1


def _cmd_accept(args: argparse.Namespace) -> int:
    names = acceptance.SUITES.get(args.suite)
    if names is None:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(acceptance.SUITES)}")
    results = []
    for name in names:
        r = acceptance.run_criterion(name)
        results.append(r)
        print(r.line(), flush=True)
    report = acceptance.AcceptanceReport(args.suite, results)
    print(report.text().splitlines()[-1])
    if args.out:
        path = resolve_output_path(args.out)
        _write_text(path if path.endswith(".json") else path + ".json",
                    _json_dumps(report.to_json_dict()))
    return report.exit_code


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: argparse.ArgumentParser, *, sweepable: bool = False) -> None:
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--graph", help="graph spec, e.g. clique:8 or file:g.txt")
    p.add_argument("--algorithm", choices=("dc", "persistent"))
    p.add_argument("--colors", type=int, metavar="D", help="palette size (default: max degree + 1)")
    p.add_argument("--start", help="random | construction | mono:<c> | file:<path>")
    p.add_argument("--start-file", help="coloring file to start from (overrides --start)")
    p.add_argument("--order",
                   help="uniform | perm:<file> | mimic[:lowest] | min-drift | "
                        "max-conflicted | script:<file>")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--step-cap", type=int)
    p.add_argument("--workers", type=int, help="trial worker processes (default: all cores)")
    p.add_argument("--counters", help="comma list from total_draws,step3_draws,per_vertex")
    p.add_argument("--per-trial", action="store_true", help="also write one CSV row per trial")
    p.add_argument("--exclude-cap-hits", action="store_true",
                   help="drop capped trials from the means (default: include with a warning)")
    p.add_argument("--out", help="output stem; writes <stem>.csv and <stem>.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolor",
        description="decentralized graph recoloring: simulation, oracles, acceptance checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph (and bundled start) to files")
    p.add_argument("kind", help="graph spec, e.g. clique:8, badbip:4, erdos:50,0.1,7")
    p.add_argument("--out", help="graph file path (default: stdout)")
    p.add_argument("--start-out", help="where to write the bundled start coloring, if any")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run", help="run Monte Carlo trials and summarize")
    _add_config_flags(p)
    p.add_argument("--trace", metavar="PATH", help="write the trial-0 selection trace")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="repeat a run across one axis and tabulate growth")
    _add_config_flags(p)
    p.add_argument("--axis", required=True, help="e.g. graph.n, graph.delta, D, master_seed")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("oracle", help="print exact expectations as p/q (≈ decimal)")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", choices=("dc", "persistent"), default="dc")
    p.add_argument("--colors", type=int, metavar="D")
    p.add_argument("--start", help="random | construction | mono:<c> | file:<path>")
    p.add_argument("--start-file")
    p.add_argument("--order", help="dc: uniform|mimic[:mode]; persistent: all|perm:<file>")
    p.add_argument("--method", choices=("auto", "exact", "iterative"), default="auto")
    p.add_argument("--quantity", choices=("recolorings", "drift"), default="recolorings")
    p.add_argument("--vertex", type=int, help="conflicted vertex for --quantity drift")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print the oracle's diagnostics (chain size, fill-in, rationals) on stderr")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("drift-check", help="audit exact one-step drifts on random states")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(fn=_cmd_drift_check)

    p = sub.add_parser("accept", help="run the pinned acceptance suite")
    p.add_argument("suite", nargs="?", default="all",
                   help=f"one of {', '.join(sorted(acceptance.SUITES))}")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(fn=_cmd_accept)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
