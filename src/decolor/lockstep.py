"""Lockstep kernels: many uniform-order trials at once on small graphs.

Both kernels run one pass of trials together on numpy arrays and give
every trial they finish exactly the result the scalar engine gives it
alone. One entry point, ``run_pass``, runs either process, `fits` says
which graphs and palettes each kernel takes, and `MIN_RANGE` and
`PERSISTENT_MIN_RANGE` how many trials a range needs. Both follow the
stream version 2 rules (see ``decolor.engine``). A pass fills its caller's
arrays and returns the trials it cannot finish, and ``decolor.experiments``,
whose one loop runs every scalar trial, reruns them from the start in
``run_decentralized`` or ``run_persistent`` into the same rows.

One-draw. The state per trial mirrors the scalar engine's: colors,
same-color neighbor counts, the conflict tracker's swap-remove `members`
list and its `pos` index, and per-vertex draws, as (T, n + 1) arrays.
Column n is a dummy vertex of color 0 that pads every adjacency row to the
max degree; it never matches a color, so it never changes a count. Every
trial still in lockstep has made as many selections as the others, so all
of them sit at the same position of their streams: the kernel reads the
streams one position at a time for the range (``rng.stream_rows``), and
drops finished trials from the stream whenever the active ones have
halved. Per selection it takes the pick ``members[(j * |C|) >> 53]`` and
the color ``j mod D + 1``. A recolor updates only the neighbors that hold
the old or the new color, taken in adjacency order by one row-major
``np.nonzero``, and then the vertex itself, so the members list sees the
same swap-removes and appends, in the same order, as
``ConflictTracker.recolor``. A trial stays in the kernel until its
conflicted set is empty or it reaches the step cap, where its state is
the scalar engine's. Two kinds of trial run in ``run_decentralized`` from
the start instead: one that meets a rejected value, among its random
initial colors or a selection's color value (probability below D / 2^53
per value), and the longest trials of a pass, once no more than a
`TAIL_SHARE`-th of its trials are left, since their lockstep tail would
cost more than running them alone.

Persistent. All trials read the head of their streams at the same rate:
the random initial colors, then the n - 1 Fisher-Yates values, so the
permutations are built on (T, n) arrays a swap at a time. The walk then
takes one position s at a time for all trials: it gathers the neighbors'
colors of ``perm[:, s]``, tests for a conflict, and for each conflicted
trial takes the first walk value at or after the trial's own cursor whose
color is free, one bit test against a ``uint64`` mask of the neighbors'
colors (so D <= 63, `MAX_PERSISTENT_D`), `WINDOW` values at a time. Like
the scalar walk it tests each position once: when every vertex has a free
color, a vertex the walk has passed or cleared never becomes conflicted
again. Each trial's values are the 64-bit words of its own generator,
``trial_rng(m, i)``, each one value j (its top 53 bits), filled into a row
of 1-byte colors ``j mod D + 1``; a trial that reads past its row refills
it, on the generator advanced past the values already read. A trial that
meets a rejected value anywhere in the values filled for it, reaches the
step cap, or reaches a vertex with no free color reruns in
``run_persistent`` from the start.
"""

from __future__ import annotations

import numpy as np

from .coloring import Coloring
from .engine import _initial_colors
from .graphs import Graph
from .rng import stream_rows, trial_rng

_TWO53 = 1 << 53
# trials * (n + 1) per lockstep pass: 1024 trials at n = 32, 519 at n = 64,
# more on smaller graphs; about 264 KiB per state array
PASS_ENTRIES = 33 * 1024
# a one-draw pass leaves its lockstep once at most 1/TAIL_SHARE of its trials
# are left (7 of 1000), and those rerun in the scalar engine from the start:
# on a small graph one lockstep step costs as much as several whole scalar
# trials. Without this rule, kernel time per trial with 1000-trial ranges
# was 5-15 % higher on K4, K5, K8 and C4 from a mono start (medians of 9
# runs); shares of 8, 16 and 128 measured alike within the noise.
TAIL_SHARE = 128
# one-draw ranges of fewer trials run in the scalar engine (see `fits`)
MIN_RANGE = 256
# and persistent ranges of fewer trials than this
PERSISTENT_MIN_RANGE = 64
# the persistent kernel keeps 1-byte colors and 1- or 2-byte vertices per
# entry, so its passes hold twice as many (2048 trials at n = 32, 1039 at
# n = 64, 131 at n = 512)
PERSISTENT_PASS_ENTRIES = 2 * PASS_ENTRIES
# 1-byte walk colors per persistent pass (512 KiB), at most MAX_WALK per
# trial, and stream values converted at once while filling them (64 KiB)
WALK_ENTRIES = 512 * 1024
MAX_WALK = 1024
FILL_ENTRIES = 8 * 1024
# walk values the free-color search tests per conflicted trial and round.
# Kernel time on K32 (2000 trials) and on K_{32,32} from the rigged start
# (1000 trials), as the median ratio to 32-value windows over 13-21
# alternating runs: 16 values 1.04 and 1.23, 64 values 1.04 and 0.92;
# ragged windows (twice the expected draws, then doubling) 1.09 and
# 1.03-1.05; a masked scan of each trial's whole block 1.35 and 1.14-1.17.
WINDOW = 32
MAX_PERSISTENT_D = 63  # colors 1..D are bits of a uint64 mask


def fits(g: Graph, D: int, persistent: bool) -> bool:
    """Whether uniform-order trials on g with palette D run in a kernel:
    one-draw trials when n <= 64, persistent ones when n <= 512 and D <= 63.

    One-draw. A lockstep step costs a fixed number of numpy calls, a few
    more per tracker event, while the scalar engine pays a fixed cost per
    trial plus a few microseconds per step. Scalar time over kernel time,
    wall time of `run_trials` with one worker on a 2-vCPU VM, best of 5:

        trials   K8    C8 mono  K32   C64   G(64, 0.15)  K64
        1        0.14  0.12     0.05  0.04  0.11         0.06
        128      0.58  0.70     0.85  0.58  0.78         1.02
        256      0.95  1.19     1.29  0.94  1.59         1.52
        400      1.70  1.64     1.68  1.22  1.51         2.15

    (D = 3 on the cycles.) So a range of fewer than `MIN_RANGE` trials runs
    in the scalar engine. Past 64 vertices, at 400 trials (best of 3), the
    kernel lost on C128 (0.73) and was about even on G(128, 0.05) (1.12),
    though K128 gained (2.0), so the cut-off is 64. With K64 in the
    kernel, the benchmark's peak RSS went from 47.7 MB to 48.7 MB (+2 %,
    medians of ten runs).

    Persistent. The walk visits each position once, so it has no lockstep
    tail, but a pass holds PERSISTENT_PASS_ENTRIES // (n + 1) trials, so
    per trial the kernel's fixed cost grows with n. Scalar time over kernel
    time per trial, 512-trial ranges from a random start with D = max
    degree + 1 (best of 3, on a Xeon VM): 2.4 on C64, 2.5 on G(64, 0.15),
    2.7 on C128 and G(128, 0.05), 2.1 on C256 and G(256, 0.02), 3.2 on
    G(256, 0.15), 1.4 on C512, 1.5 on G(512, 0.01), but 0.9-1.1 on C1000
    and G(1000, 0.01), where a pass holds 67 trials. On short ranges the
    scalar engine wins; scalar time over kernel time of `run_trials` with
    one worker, best of 7, from a random start:

        trials   C8 (D = 3)  K8    K32   G(64, 0.15)
        1        0.32        0.36  0.26  0.28
        16       0.47        0.52  0.60  0.40
        32       0.62        0.67  0.89  0.57
        64       0.74        0.81  1.23  0.87
        128      0.83        0.96  1.67  1.21

    No count up to 64 wins on all four graphs, so a range of fewer than
    `PERSISTENT_MIN_RANGE` = 64 trials runs in the scalar engine.
    """
    if persistent:
        return g.n <= 512 and D <= MAX_PERSISTENT_D
    return g.n <= 64


def run_pass(
    g: Graph, D: int, start: Coloring | None, master_seed: int, a: int, cap: int,
    persistent: bool, gen: np.random.Generator,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Trials a, a + 1, ... of a uniform-order run of the one-draw process,
    or of the persistent one (which needs D <= 63), in one lockstep pass.

    `out` holds the caller's arrays, one row per trial: step3 draws,
    selections, terminated and per-vertex draws (n columns), set to 0, 0,
    True and 0. The pass fills them and returns the offsets from a of the
    trials to rerun from the start; every other row equals
    ``run_decentralized`` or ``run_persistent`` on ``trial_rng(master_seed,
    i)``. `gen` is reseeded for every fill.
    """
    if persistent and not 1 <= D <= MAX_PERSISTENT_D:
        raise ValueError(f"the persistent kernel needs 1 <= D <= {MAX_PERSISTENT_D}, got {D}")
    n = g.n
    fixed = None if start is None else _initial_colors(g, D, start, None)
    nbr = np.full((n, max(g.max_degree, 1)), n, dtype=np.int32)  # int32: smaller gathers
    for v, av in enumerate(g.adjacency):
        nbr[v, : len(av)] = av
    args = (nbr, D, fixed, master_seed, a, a + len(out[0]), cap, out)
    return np.flatnonzero(_persistent_pass(*args, gen) if persistent else _pass(*args))


def _pass(nbr, D, fixed, master_seed, a, b, cap, out) -> np.ndarray:
    """Trials a..b-1 in one one-draw lockstep pass: fills `out` (see
    `run_pass`) and returns the mask of trials to rerun from the start.

    Every trial still in lockstep has made the same number of selections and
    read the same number of values, so one cursor serves them all and the
    stream is read one row (one position of every trial) at a time.
    """
    n, T = nbr.shape[0], b - a
    S = n + 1
    lim = _TWO53 - _TWO53 % D
    values = stream_rows(master_seed, a, b)

    colors = np.zeros((T, S), dtype=np.int64)
    if fixed is None:
        first = np.array([next(values) for _ in range(n)]).view(np.int64)
        bad = ~(first < lim).all(axis=0)  # trials that rerun in the scalar engine
        colors[:, :n] = (first % D + 1).T
    else:
        colors[:, :n] = fixed
        bad = np.zeros(T, dtype=bool)

    # the tracker of a fresh run: counts, and the conflicted vertices ascending
    counts = np.zeros((T, S), dtype=np.int64)
    for column in nbr.T:
        counts[:, :n] += colors[:, column] == colors[:, :n]
    conflicted = counts[:, :n] > 0
    rank = conflicted.cumsum(axis=1) - 1
    pos = np.full((T, S), -1, dtype=np.int64)
    pos[:, :n] = np.where(conflicted, rank, -1)
    members = np.zeros((T, S), dtype=np.int64)  # entries past a row's size are unused
    rows, vs = np.nonzero(conflicted)
    members[rows, rank[rows, vs]] = vs
    size = conflicted.sum(axis=1)
    pv = np.zeros((T, S), dtype=np.int64)
    colors_f, counts_f, members_f, pos_f, pv_f = (
        arr.ravel() for arr in (colors, counts, members, pos, pv)
    )

    def apply_events(rows, base, u, drop) -> None:
        """One tracker event per row: swap-remove u (drop) or append u.

        Appending is the same three writes with p = size and w = u; for an
        append the read at size - 1 may fall before the row, and is unused.
        """
        s = size[rows]
        p = np.where(drop, pos_f[base + u], s)
        w = np.where(drop, members_f[base + s - 1], u)
        members_f[base + p] = w
        pos_f[base + w] = p
        pos_f[base + u] = np.where(drop, -1, s)
        size[rows] = s + 1 - 2 * drop

    steps = np.zeros(T, dtype=np.int64)  # set when a trial leaves the lockstep
    act = np.flatnonzero(~bad)
    col = act  # each active trial's column in the stream's rows
    width = T  # columns the stream still computes
    step = 0
    while True:
        live = size[act] > 0
        if not live.all():
            steps[act[~live]] = step
            act, col = act[live], col[live]
        if act.size * TAIL_SHARE <= T:  # the tail reruns from the start
            bad[act] = True
            break
        if step >= cap:  # the state at the cap is the scalar engine's
            steps[act] = step
            break
        if 2 * act.size <= width:  # drop finished trials from the stream
            row = values.send(col)
            col, width = np.arange(act.size), act.size
        else:
            row = next(values)
        jp = row.view(np.int64)[col]
        jc = next(values).view(np.int64)[col]
        go = jc < lim
        if not go.all():
            bad[act[~go]] = True
            act, col, jp, jc = act[go], col[go], jp[go], jc[go]
            if not act.size:
                break
        step += 1
        base = act * S
        v = members_f[base + (jp * size[act] >> 53)]
        x = jc % D + 1
        vi = base + v
        pv_f[vi] += 1
        old = colors_f[vi]
        rows = act
        changed = x != old
        if not changed.all():
            rows, base, v, x, old, vi = (arr[changed] for arr in (act, base, v, x, old, vi))
            if not rows.size:
                continue
        colors_f[vi] = x
        ni = base[:, None] + nbr[v]
        cu = colors_f[ni]
        # the neighbors holding the old or the new color, row-major: each
        # row's in adjacency order
        er, ec = np.nonzero((cu == old[:, None]) | (cu == x[:, None]))
        ui = ni[er, ec]
        up = cu[er, ec] == x[er]
        before = counts_f[ui]
        counts_f[ui] = before + 2 * up - 1  # +1 for the new color, -1 for the old
        own = np.bincount(er[up], minlength=rows.size)
        had = counts_f[vi] > 0
        counts_f[vi] = own
        # events in tracker order: each row's neighbors, then v
        ev = np.flatnonzero(np.where(up, before == 0, before == 1))
        er = er[ev]
        ev_v = np.flatnonzero(had != (own > 0))
        if not (er.size or ev_v.size):
            continue
        # round r applies every row's r-th event; rows are independent
        nth = np.concatenate((np.arange(er.size) - np.searchsorted(er, er),
                              np.bincount(er, minlength=rows.size)[ev_v]))
        us = np.concatenate((ui[ev] - base[er], v[ev_v]))
        drops = np.concatenate((~up[ev], had[ev_v]))
        er = np.concatenate((er, ev_v))
        by_round = np.argsort(nth * rows.size + er)  # keys are distinct: any sort is stable
        er, us, drops = er[by_round], us[by_round], drops[by_round]
        rows, bases = rows[er], base[er]
        lo_ = 0
        for hi_ in np.cumsum(np.bincount(nth)).tolist():
            apply_events(rows[lo_:hi_], bases[lo_:hi_], us[lo_:hi_], drops[lo_:hi_])
            lo_ = hi_

    step3, selections, terminated, per_vertex = out
    step3[:] = selections[:] = steps  # one draw per selection
    terminated[:] = size == 0
    per_vertex[:] = pv[:, :n]
    return bad


def walk_block(T: int) -> int:
    """Walk values each of a pass's T trials holds at once, as `WALK_ENTRIES`
    and `MAX_WALK` allow. A trial that reads past its block refills its row."""
    return min(max(WALK_ENTRIES // T, 16), MAX_WALK)


def _values(master_seed: int, trials: np.ndarray, skips: np.ndarray, width: int, gen):
    """Yield (r, block): block[k] holds the values j = u * 2^53 at positions
    skips[r + k] .. skips[r + k] + width - 1 of trial trials[r + k]'s stream,
    for a bounded number of trials at a time."""
    rows = max(FILL_ENTRIES // max(width, 1), 1)
    buf = np.empty((min(rows, len(trials)), width), dtype=np.uint64)
    for r in range(0, len(trials), rows):
        block = buf[: min(rows, len(trials) - r)]
        part = zip(trials[r : r + rows].tolist(), skips[r : r + rows].tolist())
        for k, (i, skip) in enumerate(part):
            bits = trial_rng(master_seed, i, gen).bit_generator
            if skip:
                bits.advance(skip)
            block[k] = bits.random_raw(width)  # the 64-bit words `random` reads
        block >>= np.uint64(11)  # u keeps a word's top 53 bits
        yield r, block


def _colors(block: np.ndarray, D: int) -> np.ndarray:
    """Colors j mod D + 1 of a block of values, computed in place."""
    j = block.view(np.int64)  # j < 2^53
    j %= D
    j += 1
    return j


def _persistent_pass(nbr, D, fixed, master_seed, a, b, cap, out, gen) -> np.ndarray:
    """Trials a..b-1 in one persistent lockstep pass, with walk blocks of
    `walk_block` values: fills `out` (see `run_pass`), whose step3 column is
    each trial's walk cursor, and returns the mask of trials to rerun from
    the start."""
    n, T = nbr.shape[0], b - a
    W = walk_block(T)
    S = n + 1
    # the head of each stream: initial colors (random start), then Fisher-Yates
    mods = [D] * (0 if fixed is not None else n) + list(range(n, 1, -1))
    head = len(mods)
    lims = np.array([_TWO53 - _TWO53 % k for k in mods], dtype=np.uint64)
    mods = np.array(mods, dtype=np.uint64)
    lim = np.uint64(_TWO53 - _TWO53 % D)
    trials = np.arange(a, b)
    bad = np.zeros(T, dtype=bool)  # trials that rerun in the scalar engine
    walk = np.empty((T, W), dtype=np.uint8)  # colors of walk values base .. base + W - 1
    walk_f = walk.ravel()
    base = np.zeros(T, dtype=np.int64)

    def fill(rows: np.ndarray, skip: int) -> None:
        """Walk colors of rows from each one's base on; marks rejected values."""
        for r, block in _values(master_seed, trials[rows], skip + base[rows], W, gen):
            part = rows[r : r + len(block)]
            bad[part] |= (block >= lim).any(axis=1)
            walk[part] = _colors(block, D)

    heads = np.empty((T, head), dtype=np.min_scalar_type(max(n, D)))
    for r, block in _values(master_seed, trials, np.zeros(T, dtype=np.int64), head + W, gen):
        part = slice(r, r + len(block))
        bad[part] = (block[:, :head] >= lims).any(axis=1) | (block[:, head:] >= lim).any(axis=1)
        heads[part] = block[:, :head] % mods
        walk[part] = _colors(block[:, head:], D)

    colors = np.zeros((T, S), dtype=np.uint8)
    colors[:, :n] = heads[:, :n] + 1 if fixed is None else fixed
    colors_f = colors.ravel()
    perm = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (T, 1))
    every = np.arange(T)
    for k in range(n, 1, -1):
        j = heads[:, head + 1 - k]
        top = perm[:, k - 1].copy()
        perm[:, k - 1] = perm[every, j]
        perm[every, j] = top
    del heads

    step3, selections, _, per_vertex = out
    full = np.uint64(((1 << D) - 1) << 1)
    one = np.uint64(1)
    w = min(WINDOW, W)
    span = np.arange(w, dtype=np.int32)
    act = np.flatnonzero(~bad)
    rows = (act * S).astype(np.int32)
    order = perm.T.copy()  # order[s] is every trial's vertex at walk position s
    for s in range(n):
        v = order[s, act]
        vi = rows + v
        nc = colors_f[rows[:, None] + nbr[v]]
        hit = (nc == colors_f[vi][:, None]).any(axis=1)
        if not hit.any():
            continue
        # the conflicted trials redraw from their cursors until a free color,
        # testing windows of w values; a window may not pass the block's end
        r, vi = act[hit], vi[hit]
        used = np.bitwise_or.reduce(one << nc[hit], axis=1)
        first_at = step3[r]
        cur = first_at.copy()
        x = np.zeros(r.size, dtype=np.uint8)  # the color found, 0 until then
        # no free color: only the cap would end the redraws
        p = np.flatnonzero(used & full != full)
        while p.size:
            rp = r[p]
            low = cur[p] - base[rp] + w > W
            if low.any():  # a row the refill rejects still ends its search, then reruns
                base[rp[low]] = cur[p[low]]
                fill(rp[low], head)
            # int32 indices and in-place ops keep the (rows, w) temporaries small
            win = walk_f[(rp * W + cur[p] - base[rp]).astype(np.int32)[:, None] + span]
            free = used[p, None] >> win
            free &= one
            free = free == 0
            at = free.argmax(axis=1)
            got = free[np.arange(p.size), at]
            cur[p] += np.where(got, at + 1, w)
            x[p[got]] = win[got, at[got]]
            p = p[~got & (cur[p] < cap)]  # a miss at the cap caps the trial
        ok = (x > 0) & (cur <= cap) & ~bad[r]
        bad[r[~ok]] = True
        r, vi, cur = r[ok], vi[ok], cur[ok]
        colors_f[vi] = x[ok]
        step3[r] = cur
        selections[r] += 1
        per_vertex[r, vi - r * S] = cur - first_at[ok]
        if bad[act].any():
            act = act[~bad[act]]
            rows = (act * S).astype(np.int32)
    return bad
