"""Seed derivation: distinct, deterministic per-trial streams."""

import numpy as np
from hypothesis import given, settings, strategies as st

from decolor.rng import GOLDEN_GAMMA, MASK64, splitmix64, stream_rows, trial_rng, trial_seed


def test_splitmix64_is_a_pure_64_bit_map():
    assert splitmix64(0) == splitmix64(0)
    assert 0 <= splitmix64(12345) <= MASK64
    # the documented derivation: bump by (i+1) increments of the golden gamma
    assert trial_seed(42, 0) == splitmix64((42 + GOLDEN_GAMMA) & MASK64)
    assert trial_seed(42, 2) == splitmix64((42 + 3 * GOLDEN_GAMMA) & MASK64)


def test_trial_seeds_disperse():
    seeds = {trial_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    # different masters with identical indices do not collide either
    assert {trial_seed(m, 0) for m in range(1000)}.isdisjoint(
        {trial_seed(m, 1) for m in range(1000)}
    )


def test_trial_rng_streams_are_reproducible_and_independent():
    a = trial_rng(7, 3).integers(0, 1 << 30, size=8)
    b = trial_rng(7, 3).integers(0, 1 << 30, size=8)
    c = trial_rng(7, 4).integers(0, 1 << 30, size=8)
    assert (a == b).all()
    assert (a != c).any()


@given(
    master=st.one_of(st.sampled_from([0, 2**63 - 1, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    lo=st.one_of(st.integers(0, 10**6), st.integers(2**64 - 20, 2**64 + 20)),
    rows=st.integers(0, 12),
    k=st.integers(0, 70),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_stream_rows_are_the_trials_stream_values(master, lo, rows, k, data):
    # after the first row, `send` may keep any increasing subset of the rows
    # at any position; the kept trials' values must go on unchanged
    sends = data.draw(st.sets(st.integers(1, 70)), label="send positions")
    stream = stream_rows(master, lo, lo + rows)
    kept = list(range(rows))
    got = {r: [] for r in kept}
    for position in range(k):
        if position in sends:
            columns = st.sets(st.integers(0, len(kept) - 1)) if kept else st.just(set())
            keep = sorted(data.draw(columns, label="kept columns"))
            row = stream.send(np.array(keep, dtype=np.intp))
            kept = [kept[c] for c in keep]
        else:
            row = next(stream)
        assert row.dtype == np.uint64 and row.shape == (len(kept),)
        for c, r in enumerate(kept):
            got[r].append(int(row[c]))
    for r, values in got.items():
        want = (trial_rng(master, lo + r).random(len(values)) * 2.0**53).astype(np.uint64)
        assert values == want.tolist()
