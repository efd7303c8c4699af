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
from .coloring import Coloring, coloring_to_text
from .engine import FixedStart, run_decentralized, run_persistent, trace_to_text
from .experiments import (
    SPEC_KINDS,
    SPEC_PARAMS,
    SPEC_WORDS,
    ExperimentConfig,
    build_graph,
    drift_check,
    output_stem,
    resolve_output_path,
    run_trials,
    sweep,
    sweep_to_csv,
    _build,
    _json_dumps,
    _write_text,
)
from .graphs import graph_to_text
from .rng import trial_rng


# ---------------------------------------------------------------------------
# compact spec parsing (shared by several subcommands)


def parse_spec(family: str, text: str) -> object:
    """The config form of a compact `graph`, `start` or `order` spec: one of
    the family's bare words (`SPEC_WORDS`), or `kind:a,b` with the kind's
    parameters in `SPEC_KINDS` order, each read by its `SPEC_PARAMS` reader.
    A kind with one parameter takes all the text after the colon, so a path
    may hold commas."""
    if text in SPEC_WORDS[family]:
        return text
    kind, _, rest = text.partition(":")
    names = SPEC_KINDS[family].get(kind)
    if names is None or any(SPEC_PARAMS[name][1] is None for name in names):
        raise ValueError(f"unknown {family} spec {text!r}")
    args = rest.split(",") if len(names) > 1 else [rest] if rest else []
    if len(args) != len(names):
        raise ValueError(f"{family} spec {text!r}: expected {kind}:{','.join(names)}")
    return {"kind": kind, **{name: SPEC_PARAMS[name][1](a) for name, a in zip(names, args)}}


# ---------------------------------------------------------------------------
# subcommand handlers


def _write(path: str, text: str) -> str:
    """Write text to path, resolved under $DECOLOR_OUTPUT_DIR; return the
    path written."""
    path = resolve_output_path(path)
    _write_text(path, text)
    return path


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_spec("graph", args.kind)
    g, bundled = build_graph(spec)
    if args.out:
        path = _write(args.out, graph_to_text(g))
        print(f"wrote {g.n} vertices / {g.edge_count()} edges to {path}")
    else:
        sys.stdout.write(graph_to_text(g))
    if args.start_out:
        if bundled is None:
            raise ValueError(f"graph kind {spec['kind']!r} has no bundled start coloring")
        print(f"wrote start coloring to {_write(args.start_out, coloring_to_text(bundled))}")
    elif bundled is not None and not args.out:
        sys.stdout.write(coloring_to_text(bundled))
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The JSON object of --config, if given, with every given flag on top.

    A config flag's dest is the name of its ExperimentConfig field, and a
    flag left out is None, so it keeps the file's value. Spec texts go
    through `parse_spec`; --start-file is the start `file:<path>` and beats
    --start.
    """
    data: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    given = dict(vars(args))
    if given.get("start_file"):
        given["start"] = f"file:{given['start_file']}"
    # an empty --counters sets nothing, like an absent one
    given["counters"] = ([c.strip() for c in given["counters"].split(",")]
                         if given.get("counters") else None)
    for name in ExperimentConfig.__dataclass_fields__:
        value = given.get(name)
        if value is not None:
            data[name] = parse_spec(name, value) if name in SPEC_KINDS else value
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
        print(f"  wrote {output_stem(cfg.output)}.{{csv,json}}")
    if args.trace:
        runner = run_decentralized if cfg.algorithm == "dc" else run_persistent
        r = runner(*_build(cfg), trial_rng(cfg.master_seed, 0), step_cap=cfg.step_cap, trace=True)
        path = _write(args.trace, trace_to_text(r.trace))
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
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(f"--values: {tok!r} is not a number") from None
    rows = sweep(cfg, args.axis, values)
    csv_text = sweep_to_csv(rows)
    sys.stdout.write(csv_text)
    if args.output:
        _write_text(output_stem(args.output) + ".csv", csv_text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    persistent = args.algorithm == "persistent"
    drift = args.quantity == "drift"
    if args.method is not None and (persistent or drift):
        raise ValueError("--method is read only by the one-draw recolorings oracle (--algorithm dc)")
    if args.vertex is not None and not drift:
        raise ValueError("--vertex is read only by --quantity drift")
    for flag, given in (("--order", args.order is not None), ("--algorithm", args.algorithm),
                        ("-v", args.verbose)):
        if given and drift:
            raise ValueError(f"{flag} is read only by --quantity recolorings")
    if persistent and args.order == "all":
        args.order = "uniform"  # the persistent oracle's name for uniform order
    g, D, start, order = _build(_load_config(args))

    if not drift:
        if persistent:
            value = oracle.exact_expected_recolorings_persistent(g, D, start, order)
        else:
            value = oracle.exact_expected_recolorings_dc(g, D, start, order, method=args.method or "auto")
        print(value)
        if args.verbose:
            _print_oracle_diagnostics(value)
        return 0

    # one-step recoloring drifts at a conflicted vertex
    if not isinstance(start, FixedStart):
        raise ValueError("drift quantities need a fixed start (--start file:/mono:/construction)")
    # under the run's palette: a bundled start keeps its own
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
    residual = value.max_residual
    for label, x in (("transient states", value.transient),
                     ("nonzeros of I - Q", value.nonzeros),
                     ("fill-in", value.fill),
                     ("refinement rounds", value.refinements),
                     ("max residual", None if residual is None else f"{float(residual):.3g}")):
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
        path = output_stem(args.out) + ".json"
        _write_text(path, _json_dumps(rep.to_json_dict()))
        print(f"wrote {path}")
    return 0 if rep.ok else 1


def _cmd_accept(args: argparse.Namespace) -> int:
    report = acceptance.accept(args.suite, lambda r: print(r.line(), flush=True))
    print(report.verdict)
    if args.out:
        _write_text(output_stem(args.out) + ".json", _json_dumps(report.to_json_dict()))
    return report.exit_code


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: argparse.ArgumentParser, out_help: str) -> None:
    """The flags of `run` and `sweep`; each dest names an ExperimentConfig field."""
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--graph", help="graph spec, e.g. clique:8 or file:g.txt")
    p.add_argument("--algorithm", choices=("dc", "persistent"))
    p.add_argument("--colors", dest="D", type=int, metavar="D",
                   help="palette size (default: max degree + 1)")
    p.add_argument("--start", help="random | construction | mono:<c> | file:<path>")
    p.add_argument("--start-file", help="coloring file to start from (overrides --start)")
    p.add_argument("--order",
                   help="uniform | perm:<file> | mimic[:lowest] | min-drift | "
                        "max-conflicted | script:<file>")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED", help="master seed")
    p.add_argument("--step-cap", type=int)
    p.add_argument("--workers", type=int, help="trial worker processes (default: all cores)")
    p.add_argument("--counters", help="comma list from total_draws,step3_draws,per_vertex")
    p.add_argument("--per-trial", action="store_const", const=True,
                   help="also write one CSV row per trial")
    p.add_argument("--exclude-cap-hits", action="store_const", const=True,
                   help="drop capped trials from the means (default: include with a warning)")
    p.add_argument("--out", dest="output", metavar="OUT", help=out_help)


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
    _add_config_flags(p, "output stem; writes <stem>.csv and <stem>.json")
    p.add_argument("--trace", metavar="PATH", help="write the trial-0 selection trace")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="repeat a run across one axis and tabulate growth")
    _add_config_flags(p, "output stem; writes <stem>.csv")
    p.add_argument("--axis", required=True, help="e.g. graph.n, graph.delta, D, master_seed")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("oracle", help="print exact expectations as p/q (≈ decimal)")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", choices=("dc", "persistent"), help="default: dc")
    p.add_argument("--colors", dest="D", type=int, metavar="D")
    p.add_argument("--start", help="random | construction | mono:<c> | file:<path>")
    p.add_argument("--start-file")
    p.add_argument("--order", help="uniform | perm:<file> | mimic[:lowest]; persistent also all")
    p.add_argument("--method", choices=("auto", "exact", "iterative"),
                   help="one-draw solve (default: auto)")
    p.add_argument("--quantity", choices=("recolorings", "drift"), default="recolorings")
    p.add_argument("--vertex", type=int, help="conflicted vertex for --quantity drift")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print the oracle's diagnostics (chain size, fill-in, refinement) on stderr")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("drift-check", help="audit exact one-step drifts on random states")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report stem; writes <stem>.json")
    p.set_defaults(fn=_cmd_drift_check)

    p = sub.add_parser("accept", help="run the pinned acceptance suite")
    p.add_argument("suite", nargs="?", default="all",
                   help=f"one of {', '.join(sorted(acceptance.SUITES))}")
    p.add_argument("--out", help="report stem; writes <stem>.json")
    p.set_defaults(fn=_cmd_accept)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
