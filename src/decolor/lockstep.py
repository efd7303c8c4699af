"""Lockstep kernel: many one-draw uniform-order trials at once on small graphs.

A range of trials runs together on (T, n + 1) numpy arrays that mirror the
scalar engine's state per trial: colors, same-color neighbor counts, the
conflict tracker's swap-remove `members` list and its `pos` index, and
per-vertex draws. Column n is a dummy vertex of color 0 that pads every
adjacency row to the max degree; it never matches a color, so it never
changes a count.

Every trial still in lockstep has made as many selections as the others,
so all of them sit at the same position of their streams: the kernel reads
the streams one position at a time for the whole range
(``rng.stream_rows``), up to the first `kernel_block(n)` values. It follows
the stream version 2 rules exactly (see ``decolor.engine``): initial colors,
then per selection the pick ``members[(j * |C|) >> 53]`` and the color
``j mod D + 1``. A recolor updates the neighbors in adjacency order and then
the vertex itself, so the members list sees the same swap-removes and
appends, in the same order, as ``ConflictTracker.recolor``.

A trial leaves the kernel for the scalar loop when its next selection needs
a value beyond the block, when that selection's color value would be
rejected (probability below D / 2^53), or when it reaches the step cap.
The scalar loop (``engine.resume_uniform_dc``) picks it up from the
kernel's state, on the trial's generator advanced past the values already
used, so every trial gives the result ``run_decentralized`` gives it
alone. A trial whose block cannot hold its random initial colors, or whose
initial colors meet a rejected value, runs in the scalar engine from the
start.
"""

from __future__ import annotations

import numpy as np

from .engine import (
    RandomStart,
    StartPolicy,
    UNIFORM_ORDER,
    _initial_colors,
    resume_uniform_dc,
    run_decentralized,
)
from .graphs import Graph
from .rng import stream_rows, trial_rng

_TWO53 = 1 << 53
# trials * (n + 1) per lockstep pass: 1024 trials at n = 32, more on smaller
# graphs; about 264 KiB per state array
PASS_ENTRIES = 33 * 1024


def kernel_block(n: int) -> int:
    """Stream values the kernel fetches per trial (the engine's first block);
    a trial that needs more finishes in the scalar loop."""
    return 4 * n + 16


def fits(g: Graph) -> bool:
    """Whether one-draw uniform-order trials on g run in the kernel: n <= 32.

    A lockstep step costs a fixed number of numpy calls, a few more per
    tracker event, while the scalar engine pays a fixed cost per trial plus
    a few microseconds per step. Measured on a 2-vCPU VM, scalar time over
    kernel time per trial was, with ranges of 1000 trials: 2.3 on K8, 2.5
    on C8, 1.7 on K12, 1.6 on K16, 1.3 on K24, 1.2 on K32, 1.9 on C32 and
    2.3 on G(32, 0.15); with ranges of 400 trials: 1.2 on K48, K64 and C64,
    but 0.8 on C128, 0.5 on C256 and 0.65 on G(256, 0.02), where the lockstep
    tail runs long and every step reads a row of the whole range. On short
    ranges the kernel loses (0.3-0.75 with 64 trials, 0.8-1.2 with 200):
    at most about 10 ms per range, which is what a worker pool that cuts a
    run into such ranges takes to start.
    """
    return g.n <= 32


def run_range(
    g: Graph, D: int, start: StartPolicy, master_seed: int, lo: int, hi: int, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials lo..hi-1 of a one-draw uniform-order run.

    Returns (step3 draws, terminated, per-vertex draws as a (hi - lo, n)
    array), equal trial by trial to ``run_decentralized`` on
    ``trial_rng(master_seed, i)``.
    """
    n, T = g.n, hi - lo
    fixed = None if isinstance(start, RandomStart) else _initial_colors(g, D, start, None)
    step3 = np.zeros(T, dtype=np.int64)
    terminated = np.zeros(T, dtype=bool)
    per_vertex = np.zeros((T, n), dtype=np.int64)
    width = max(g.max_degree, 1)
    nbr = np.full((n, width), n, dtype=np.int64)
    for v, av in enumerate(g.adjacency):
        nbr[v, : len(av)] = av
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded for every hand-off
    per_pass = PASS_ENTRIES // (n + 1)
    for a in range(lo, hi, per_pass):
        b = min(a + per_pass, hi)
        _pass(g, nbr, D, start, fixed, master_seed, a, b, cap, gen,
               step3[a - lo : b - lo], terminated[a - lo : b - lo], per_vertex[a - lo : b - lo])
    return step3, terminated, per_vertex


def _pass(g, nbr, D, start, fixed, master_seed, a, b, cap, gen, step3_out, term_out, pv_out):
    """Trials a..b-1 in one lockstep pass; writes their results into the outputs.

    Every trial still in lockstep has made the same number of selections and
    read the same number of values, so one cursor serves them all and the
    stream is read one row (one position of every trial) at a time.
    """
    n, T = g.n, b - a
    S = n + 1
    K = kernel_block(n)
    lim = _TWO53 - _TWO53 % D
    values = stream_rows(master_seed, a, b)

    colors = np.zeros((T, S), dtype=np.int64)
    if fixed is None:
        used = n
        if K >= n:
            first = np.array([next(values) for _ in range(n)]).view(np.int64)
            started = (first < lim).all(axis=0)
            colors[:, :n] = (first % D + 1).T
        else:
            started = np.zeros(T, dtype=bool)
    else:
        used = 0
        colors[:, :n] = fixed
        started = np.ones(T, dtype=bool)

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
    consumed = np.zeros(T, dtype=np.int64)
    handed = []
    act = np.flatnonzero(started)
    step = 0
    while True:
        live = size[act] > 0
        if not live.all():
            steps[act[~live]] = step
            act = act[live]
        if not act.size:
            break
        if used + 2 > K or step >= cap:
            steps[act], consumed[act] = step, used
            handed.append(act)
            break
        jp = next(values).view(np.int64)[act]
        jc = next(values).view(np.int64)[act]
        go = jc < lim
        if not go.all():
            steps[act[~go]], consumed[act[~go]] = step, used
            handed.append(act[~go])
            act, jp, jc = act[go], jp[go], jc[go]
            if not act.size:
                break
        used += 2
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
        dec = cu == old[:, None]
        inc = cu == x[:, None]
        before = counts_f[ni]
        counts_f[ni] = before - dec + inc
        own = inc.sum(axis=1)
        had = counts_f[vi] > 0
        counts_f[vi] = own
        # events in tracker order: each neighbor in adjacency order, then v
        drop = np.column_stack((dec & (before == 1), had & (own == 0)))
        add = np.column_stack((inc & (before == 0), (own > 0) & ~had))
        target = np.column_stack((ni, vi)) - base[:, None]
        er, ec = np.nonzero(drop | add)  # row-major: each row's events in order
        if not er.size:
            continue
        # round r applies every row's r-th event; rows are independent
        nth = np.arange(er.size) - np.searchsorted(er, er)
        by_round = np.argsort(nth * len(rows) + er)  # keys are distinct: any sort is stable
        er, ec = er[by_round], ec[by_round]
        rows, bases, us, drops = rows[er], base[er], target[er, ec], drop[er, ec]
        lo_ = 0
        for hi_ in np.cumsum(np.bincount(nth)).tolist():
            apply_events(rows[lo_:hi_], bases[lo_:hi_], us[lo_:hi_], drops[lo_:hi_])
            lo_ = hi_

    step3_out[:] = steps
    term_out[:] = size == 0
    pv_out[:] = pv[:, :n]
    for t in np.flatnonzero(~started).tolist():
        r = run_decentralized(g, D, start, UNIFORM_ORDER, trial_rng(master_seed, a + t, gen),
                              step_cap=cap)
        step3_out[t], term_out[t], pv_out[t] = r.step3_draws, r.terminated, r.per_vertex_draws
    for t in np.concatenate(handed).tolist() if handed else ():
        rng = trial_rng(master_seed, a + t, gen)
        rng.bit_generator.advance(int(consumed[t]))
        r = resume_uniform_dc(g, D, colors[t, :n].tolist(), members[t, : size[t]].tolist(),
                              pv[t, :n].tolist(), int(steps[t]), rng, cap)
        step3_out[t], term_out[t], pv_out[t] = r.step3_draws, r.terminated, r.per_vertex_draws
