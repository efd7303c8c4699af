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

``stream_rows`` computes the values of a whole range of trials at once,
position by position, as the integers j = u * 2^53 the engine reads,
without building a generator per trial. It runs splitmix64 and PCG64
(XSL-RR 128/64) in numpy ``uint64`` arithmetic: the 128-bit state is two
64-bit limbs, a step is state <- state * PCG_MULT + inc (mod 2^128), and a
word is rotr64(hi ^ lo, hi >> 58), of which a double keeps the top 53
bits. Its values equal ``trial_rng(m, i).random(k) * 2^53`` exactly. A
consumer whose trials finish at different times drops them from the
generator's state with ``send``, so later rows cost only the trials left.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

STREAM_VERSION = 2
MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier


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


_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_GAMMA = _U(GOLDEN_GAMMA)
_MULT_LO, _MULT_HI = _U(PCG_MULT & MASK64), _U(PCG_MULT >> 64)
_MULT_LO_0, _MULT_LO_1 = _U(PCG_MULT & 0xFFFFFFFF), _U((PCG_MULT >> 32) & 0xFFFFFFFF)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def stream_rows(
    master_seed: int, lo: int, hi: int
) -> Generator[np.ndarray, np.ndarray | None, None]:
    """The streams of trials lo..hi-1, one position at a time.

    The k-th array yielded is a uint64 row holding value k of every trial,
    as the integer j = u * 2^53: its first k rows, column r, equal
    ``trial_rng(master_seed, lo + r).random(k) * 2^53``. A row costs one
    vectorized PCG64 step over the range, so the trials share the per-call
    overhead that one generator per trial pays alone.

    ``send(keep)`` in place of ``next`` keeps only the columns ``keep`` (an
    index array into the last row) and returns the next row of those
    trials, in that order.
    """
    if lo < 0:
        raise ValueError(f"trial index must be >= 0, got {lo}")
    rows = max(hi - lo, 0)
    # s = splitmix64(master + (i + 1) * gamma) = mix(master + (i + 2) * gamma)
    first = (master_seed + (lo + 2) * GOLDEN_GAMMA) & MASK64
    s = _mix64(np.arange(rows, dtype=_U) * _GAMMA + _U(first))
    state_hi, state_lo = s, _mix64(s + _GAMMA)
    z1 = _mix64(s + _GAMMA + _GAMMA)
    inc_hi, inc_lo = z1 >> _U(63), (z1 << _U(1)) | _U(1)
    while True:
        # high limb of state_lo * MULT_LO from 32-bit partial products
        a0, a1 = state_lo & _LOW32, state_lo >> _U(32)
        p01, p10 = a0 * _MULT_LO_1, a1 * _MULT_LO_0
        mid = ((a0 * _MULT_LO_0) >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
        carry = a1 * _MULT_LO_1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
        new_hi = carry + state_lo * _MULT_HI + state_hi * _MULT_LO + inc_hi
        state_lo = state_lo * _MULT_LO + inc_lo
        new_hi += state_lo < inc_lo  # carry out of the low limb's addition
        state_hi = new_hi
        x = state_hi ^ state_lo
        rot = state_hi >> _U(58)
        keep = yield ((x >> rot) | (x << ((_U(64) - rot) & _U(63)))) >> _U(11)
        if keep is not None:
            state_hi, state_lo, inc_hi, inc_lo = (
                limb[keep] for limb in (state_hi, state_lo, inc_hi, inc_lo))
