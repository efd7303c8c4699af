"""Write pinned.json: the exact expectations the benchmark checks against.

Run from the repository root:

    python3 perfbench/pin.py

Every entry is the exact expected number of post-start draws (step3_draws)
of one instance, as p/q, with the method that produced it and its certified
error bound (also p/q; 0 for exact methods).  The Monte Carlo workloads read
these values so they never pay oracle time; the exact workload re-derives
them, so an oracle defect and a simulator defect cannot silently agree.
"""

from __future__ import annotations

import json
from fractions import Fraction

import workloads


def entry(value: Fraction, method: str, bound: Fraction = Fraction(0)) -> dict:
    return {"p": value.numerator, "q": value.denominator, "float": float(value),
            "method": method, "bound_p": bound.numerator, "bound_q": bound.denominator}


def main() -> None:
    workloads.use_checkout_sources()
    from decolor import engine, experiments, oracle
    from decolor.adversary import AdversaryStrategy

    def instance(spec, D, start):
        g, bundled = experiments.build_graph(spec)
        d = experiments.resolve_palette(D, g, bundled)
        return g, d, experiments.build_start(start, g, d, bundled)

    pinned = {}
    for label, spec, D, start in workloads.AC10:
        got = oracle.exact_expected_recolorings_dc(*instance(spec, D, start), engine.UNIFORM_ORDER)
        pinned[f"ac10/{label}"] = entry(got.value, got.method, got.error_bound)

    # one-draw on K_n with D = n from a random start is coupon collecting:
    # n * H_n total draws, of which n are the initial ones
    for n in (8, 64):
        pinned[f"K{n}"] = entry(n * oracle.harmonic(n).value - n, "closed-form n*H_n - n")

    # the mimic adversary turns one-draw into the persistent process (AC-8)
    g, d, s = instance({"kind": "badbip", "delta": 3}, None, "construction")
    mimic = engine.AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="uniform")
    got = oracle.exact_expected_recolorings_dc(g, d, s, mimic, method="exact")
    if got.value != oracle.exact_expected_recolorings_persistent(g, d, s).value:
        raise SystemExit("badbip(3): mimic chain and persistent recursion disagree")
    pinned["badbip(3)-mimic"] = entry(got.value, got.method)

    for label, spec, D in workloads.PERSISTENT:
        got = oracle.exact_expected_recolorings_persistent(*instance(spec, D, "random"))
        pinned[f"persistent/{label}"] = entry(got.value, got.method)

    with open(workloads.PINNED, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pinned)} pinned values to {workloads.PINNED.name}")


if __name__ == "__main__":
    main()
