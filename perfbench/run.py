"""decolor benchmark: one command for every workload, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload mc-uniform --seed 1 --seconds 36 --trace 0

It imports decolor from ``src/`` of the checkout, builds the workload, then
repeats the workload's fixed batch for ``--seconds``, with ``workers=1``.  It prints an environment record, exact-repeat counts of the
first batch and each metric with its unit, and as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
batches for half the time (the tracing-overhead baseline), then one batch
with spans around every layer boundary, and reports the per-layer metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads
from workloads import ROOT, WORKLOADS

SETUP_PROBES = 4  # fresh-process set-ups per run, besides the run's own


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny batches, for the benchmark's own test")
    p.add_argument("--pinned", type=Path, default=workloads.PINNED,
                   help="pinned exact values (default: pinned.json next to this file)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up and print the seconds it took")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "seed": seed,
        # decolor.oracle imports gmpy2 when it can and falls back to fractions
        "rational_backend": "gmpy2.mpq" if "gmpy2" in sys.modules else "fractions.Fraction",
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe_seconds(args: argparse.Namespace) -> float:
    """Set the workload up in a fresh interpreter; return its setup_s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--pinned", str(args.pinned)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def repeat_batches(workload, seconds: float, first_rep: int = 0) -> list[float]:
    """Batch times of at least one batch, and of as many more as are
    expected to finish within `seconds` (at the median batch time)."""
    times = []
    deadline = time.perf_counter() + seconds
    rep = first_rep
    while True:
        t0 = time.perf_counter()
        outcomes = workload.batch(rep)
        times.append(time.perf_counter() - t0)
        workload.record(rep, outcomes)
        rep += 1
        if time.perf_counter() + statistics.median(times) > deadline:
            return times


def pool_speedup(workload) -> float:
    """trials/s of run_trials on K8 with every core over trials/s with one.

    4096 trials, because run_trials runs fewer than 256 serially.  Both runs
    must give identical draws, whatever the worker count.
    """
    experiments = workload.experiments
    elapsed, results = [], []
    for workers in (1, os.cpu_count() or 1):
        cfg = experiments.ExperimentConfig(graph={"kind": "clique", "n": 8}, D=8, trials=4096,
                                           master_seed=workloads.derive_seed(workload.seed, "pool"),
                                           workers=workers)
        t0 = time.perf_counter()
        results.append(experiments.run_trials(cfg))
        elapsed.append(time.perf_counter() - t0)
    workload.check((results[0].step3_draws == results[1].step3_draws).all(),
                   "run_trials gave different draws for workers=1 and all cores")
    return elapsed[0] / elapsed[1]


def traced_batch(workload, rep: int):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        outcomes = workload.batch(rep)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    workload.record(rep, outcomes)
    return tracer, wall


# layers a workload must not reach at all: mc-uniform bypasses the policy
# path, exact runs no simulation
BYPASSED = {"mc-uniform": ("adversary",), "exact": ("engine", "rng")}


# ---------------------------------------------------------------------------
# main


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workloads.use_checkout_sources()
    workload, setup_s = workloads.setup(args.workload, args.seed, args.smoke, args.pinned)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    if args.trace:
        # the traced batch is repetition 0, so its counts repeat exactly per seed
        tracer, wall = traced_batch(workload, 0)
        base = repeat_batches(workload, args.seconds / 2, first_rep=1)
        speedup = pool_speedup(workload) if args.workload == "mc-uniform" else 0.0
        metrics = tracing.layer_metrics(tracer, wall, statistics.median(base), speedup)
        print("spans " + json.dumps(tracer.spans, sort_keys=True))
        for layer in BYPASSED.get(args.workload, ()):
            calls = metrics[f"{layer}.calls"][0]
            workload.check(calls == 0, f"{args.workload} made {calls} {layer} call(s)")
    else:
        probes = 1 if args.smoke else SETUP_PROBES
        setups = [setup_s] + [setup_probe_seconds(args) for _ in range(probes)]
        times = repeat_batches(workload, args.seconds)
        rates = [workload.units / t for t in times]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(times), "s"),
            "trials_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(f"batches {len(times)} of {workload.units} "
              f"{'oracle solves' if args.workload == 'exact' else 'trials'}; "
              f"set-ups {len(setups)}")
        print("batch_s " + json.dumps([round(t, 4) for t in times]))
        if isinstance(workload, workloads.McWorkload):
            print("case_s " + json.dumps({c.label: round(statistics.median(t), 5)
                                          for c, t in zip(workload.cases, workload.case_s)}))

    attempted, failed = workload.finish()
    print("counts " + json.dumps(workload.counts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric fail_frac {failed / attempted!r} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
