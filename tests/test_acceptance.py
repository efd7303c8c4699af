"""The ten pinned acceptance criteria, one test (and one report line) each.

These are the Monte Carlo and exact-oracle checks the package must satisfy;
seeds and tolerances live in decolor.acceptance so the CLI `accept` command
and this file verify the identical thing.
"""

from __future__ import annotations

import pytest

from decolor import acceptance


def _check(name: str) -> None:
    result = acceptance.run_criterion(name)
    print(result.line())
    assert result.passed, result.line()


def test_ac01_exact_clique_expectations():
    _check("AC-1")


def test_ac02_clique_monte_carlo_matches_collect_formula():
    _check("AC-2")


def test_ac03_per_vertex_draws_below_harmonic_bound():
    _check("AC-3")


def test_ac04_rigged_bipartite_start_forces_quadratic_work():
    _check("AC-4")


def test_ac05_component_drift_at_least_one_over_d():
    _check("AC-5")


def test_ac06_adversarial_runs_within_stopping_bound():
    _check("AC-6")


def test_ac07_conflicted_edge_drift_at_most_minus_one_over_d():
    _check("AC-7")


def test_ac08_mimic_adversary_equals_persistent_oracle():
    _check("AC-8")


def test_ac09_gadget_reproduces_delta_table():
    _check("AC-9")


def test_ac10_monte_carlo_agrees_with_exact_chains():
    _check("AC-10")


def test_suite_names_cover_every_criterion():
    assert set(acceptance.SUITES["all"]) == set(acceptance._CRITERIA)
    listed = {name for suite, names in acceptance.SUITES.items() if suite != "all"
              for name in names}
    assert listed == set(acceptance.SUITES["all"])


def test_accept_calls_back_once_per_criterion_in_suite_order():
    seen = []
    report = acceptance.accept("drift", seen.append)
    assert [r.name for r in seen] == list(acceptance.SUITES["drift"])
    assert len(report.results) == len(seen)
    assert all(a is b for a, b in zip(report.results, seen))
    assert report.suite == "drift" and report.verdict == "RESULT: PASS"


def test_unknown_criterion_and_suite_are_errors():
    with pytest.raises(ValueError):
        acceptance.run_criterion("AC-99")
    with pytest.raises(ValueError):
        acceptance.accept("everything")
