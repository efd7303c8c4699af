"""Per-trial random streams, stream layout version 2.

Every trial gets its own 64-bit seed derived from the experiment's master
seed with a fixed hash, so results are independent of worker layout and any
subset of trials can be replayed in isolation:

    s = trial_seed(master, i) = splitmix64(master + (i + 1) * GOLDEN_GAMMA)

The trial's stream is a numpy PCG64 whose 128-bit state and odd increment
are set directly (no SeedSequence) from s and the next two outputs of the
splitmix64 stream seeded at s, z_k = splitmix64(s + k * GOLDEN_GAMMA):

    state = s * 2^64 + z_0
    inc   = 2 * z_1 + 1

with all splitmix arithmetic mod 2^64. A run reads the stream only through
``Generator.random``: every value is one double built from exactly one
64-bit word. How the engine turns values into colors, picks and
permutations is part of the same contract (see ``decolor.engine``). The
generator algorithm, this derivation and the consumption order are the
output contract, versioned by ``STREAM_VERSION``; changing any of them
changes results and must bump it.
"""

from __future__ import annotations

import numpy as np

STREAM_VERSION = 2
MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """First output of a splitmix64 stream seeded at x (Steele et al. constants)."""
    z = (x + GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    return splitmix64((master_seed + (trial_index + 1) * GOLDEN_GAMMA) & MASK64)


def trial_rng(
    master_seed: int, trial_index: int, gen: np.random.Generator | None = None
) -> np.random.Generator:
    """The trial's generator; reseeds ``gen`` (a PCG64 Generator) in place when given.

    Reseeding a reused generator yields exactly the stream of a fresh one.
    """
    s = trial_seed(master_seed, trial_index)
    z0 = splitmix64(s)
    z1 = splitmix64((s + GOLDEN_GAMMA) & MASK64)
    if gen is None:
        gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (s << 64) | z0, "inc": (z1 << 1) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
