"""Stream version 2: results depend only on the stream, never on block sizes
or on whether the generator was built fresh or reseeded in place."""

from __future__ import annotations

import pytest

from decolor import engine
from decolor.adversary import AdversaryStrategy, bad_bipartite_start
from decolor.engine import (
    AdversaryOrder,
    UNIFORM_ORDER,
    run_decentralized,
    run_persistent,
)
from decolor.experiments import STREAM_VERSION, ExperimentConfig, config_hash
from decolor.graphs import gen_clique, gen_erdos_renyi
from decolor.rng import trial_rng

ORDERS = {
    "uniform": UNIFORM_ORDER,
    "mimic": AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="uniform"),
    "min-drift": AdversaryOrder(AdversaryStrategy.MinPhiDrift),
}
RUNNERS = {"dc": run_decentralized, "persistent": run_persistent}


def _instances():
    g = gen_erdos_renyi(12, 0.4, 5)
    yield g, g.max_degree + 1, None
    g, c = bad_bipartite_start(5)
    yield g, c.palette_size, c
    yield gen_clique(6), 6, None


def _fingerprint(r: engine.RunResult) -> tuple:
    return (
        r.total_draws,
        r.step3_draws,
        tuple(r.per_vertex_draws),
        r.selections,
        r.terminated,
        tuple(r.final_coloring.colors),
        tuple((v, tuple(d)) for v, d in r.trace),
    )


def _runs(algorithm: str, order: str, gen=None) -> list[tuple]:
    runner, sched = RUNNERS[algorithm], ORDERS[order]
    out = []
    for g, D, start in _instances():
        for i in range(8):
            rng = trial_rng(31, i, gen)
            out.append(_fingerprint(runner(g, D, start, sched, rng, trace=True)))
    return out


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_block_sizes_never_change_a_result(monkeypatch, algorithm, order):
    expected = _runs(algorithm, order)
    assert any(fp[1] > 0 for fp in expected)  # the runs do draw after the start
    for size in (1, 4096):
        monkeypatch.setattr(engine, "_first_block", lambda n, size=size: size)
        assert _runs(algorithm, order) == expected


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_reseeded_generator_equals_a_fresh_one(algorithm, order):
    reused = trial_rng(0, 0)
    reused.random(7)  # leave it mid-stream, as a previous trial would
    assert _runs(algorithm, order, gen=reused) == _runs(algorithm, order)


def test_trial_rng_reseeds_in_place():
    gen = trial_rng(5, 0)
    fresh = trial_rng(5, 9).random(16).tolist()
    assert trial_rng(5, 9, gen) is gen
    assert gen.random(16).tolist() == fresh


def test_stream_version_is_part_of_the_hash_but_not_a_config_field():
    cfg = ExperimentConfig(graph={"kind": "clique", "n": 3})
    assert STREAM_VERSION == 2
    assert cfg.identity_dict()["stream_version"] == STREAM_VERSION
    assert "stream_version" not in cfg.to_dict()
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"graph": {"kind": "clique", "n": 3}, "stream_version": 1})
    assert len(config_hash(cfg)) == 12
