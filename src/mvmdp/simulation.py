"""Monte Carlo oracle: sample-path estimates of the long-run metrics and of
the performance potential, with batch-means confidence intervals. These are
the independent cross-checks for the exact evaluation module.
Every walk draws from a `_support_table` of the rows of the chain it walks:
its S rows, or all pairs' rows and theta's for a randomized path."""
from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .errors import ValidationError
from .evaluation import _Chain, _evaluate_chains, _policy_chain, _sole
from .model import (
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    _check_beta,
    _check_seed,
    _dense_rows,
    _entries,
    _integer,
    _policy_rows,
    _positive_rows,
)

DEFAULT_BATCHES = 30


@dataclass(frozen=True)
class PathSample:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimates with 95% batch-means half-widths.

    Half-widths are zero for degenerate (constant) reward paths.
    """

    j_mean_hat: float
    j_var_hat: float
    j_combined_hat: float
    half_width_mean: float
    half_width_var: float
    half_width_combined: float
    horizon: int
    seed: int


@dataclass(frozen=True)
class PotentialEstimate:
    value: float
    std_error: float
    state: int
    truncation: int
    num_replications: int
    seed: int


def _support_table(indptr: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """(nxt, thresholds), the sampling table of the probability rows whose
    entries > 0 are the CSR (indptr, cols, values), one table row per CSR
    row. Row n keeps the columns of its entries, in increasing order, in
    nxt[n] and the running sums of those entries in thresholds[n], the last
    one set to 1.0; shorter rows, and rows without entries (an infeasible
    pair's), are padded with +inf thresholds. A draw u in [0, 1) moves to
    nxt[n, count(thresholds[n] <= u)], which bisect_right finds.

    That is the column bisect_right finds on the row's dense cumulative
    sums set to 1.0 from its last positive entry on: a dense sum rises only
    at positive entries (adding +-0.0 leaves a nonnegative sum as it is),
    so the thresholds are the dense sums at those columns, bit for bit, and
    a tie falls to the first column as it does there. The 1.0 keeps a draw
    at or above a sum that rounds below 1 (WIND_KERNEL row 2 cumulates to
    nextafter(1, 0)) on the row."""
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(counts.size), counts)
    slots = np.arange(rows.size) - np.repeat(indptr[:-1], counts)
    thresholds = np.full((counts.size, counts.max()), np.inf)
    thresholds[rows, slots] = values
    # cumsum along a row adds left to right, as the dense sums do
    thresholds = np.cumsum(thresholds, axis=1)
    full = np.flatnonzero(counts)
    thresholds[full, counts[full] - 1] = 1.0
    nxt = np.zeros(thresholds.shape, dtype=np.intp)
    nxt[rows, slots] = cols
    return nxt, thresholds


def _dense_support_table(rows: np.ndarray):
    """_support_table of the dense probability rows `rows`."""
    return _support_table(*_positive_rows(*_dense_rows(rows)))


CHUNK_STEPS = 100
"""Steps per chunk of the chunked walk (`_walk`): each numpy step of a pass
advances every chunk still walking by one step."""

PROBE_LANES = 32
"""Lanes of the coalescence probe (`_coalesces`): pairs of walks on the
draws of as many chunks, before any pass runs."""

MIN_CHUNKS = 500
"""Paths of fewer chunks than this (50,000 steps) walk in the per-step
loop: the fixed cost of the probe and of a pass's numpy calls, about a
hundred loop steps per call, does not pay on them."""

LOOP_LANES = 32
"""A repair pass walks its chunks in numpy while at least this many walk;
the ones left walk to their ends in the per-step loop, one by one."""

BUCKET_BITS = 8
"""A draw u falls in bucket floor(u * 2**BUCKET_BITS) of `_Sampler`'s
table."""

BUCKET_ENTRIES = 2**17
"""The largest `_Sampler` table, in (row, bucket) entries: larger sets of
rows draw by the exact count alone."""


def _next_states(nxt, thresholds, rows, u):
    """nxt[rows, count(thresholds[rows] <= u)]: the next states of draws u
    on the `_support_table` rows `rows`."""
    return nxt[rows, (thresholds[rows] <= u[:, None]).sum(axis=1)]


class _Sampler:
    """`_next_states` of a `_support_table` (nxt, thresholds), answered for
    most draws by a table of buckets of [0, 1), 2**BUCKET_BITS per row.

    Bucket b of a row spans [b, b + 1) / 2**BUCKET_BITS. A draw u in it
    has count(thresholds <= u) = low, the count at the bucket's lower edge,
    unless the bucket holds a threshold strictly inside: if those have one
    value `split`, the count is high, the count below the upper edge, from
    split on. The edges and the scaled thresholds are exact (the scale is a
    power of two), so the table gives the exact count, not a rounded one.
    A bucket with two distinct thresholds inside is marked -1, and its
    draws take the exact count."""

    def __init__(self, nxt, thresholds):
        self.nxt, self.thresholds = nxt, thresholds
        rows = thresholds.shape[0]
        n = 1 << BUCKET_BITS
        scaled = np.minimum(thresholds * n, n)  # +inf and sums >= 1 to n
        scaled[:, -1] = n
        # count(thresholds <= u) is k on the buckets from ceil(t[k-1] n) to
        # ceil(t[k] n) - 1, and count(thresholds < (b + 1) / n) is k on the
        # buckets from floor(t[k-1] n) to floor(t[k] n) - 1: each row's
        # next states repeated over those bucket runs
        edges = np.stack([np.ceil(scaled), np.floor(scaled)]).astype(np.intp)
        runs = np.diff(edges, axis=2, prepend=0)
        low, high = (np.repeat(nxt.ravel(), r.ravel()) for r in runs)
        self.next = np.stack([low, high], axis=1).ravel()
        inside = edges[0] != edges[1]
        at = np.arange(rows)[:, None] * n + edges[1]
        self.split = np.full(rows * n, np.inf)
        self.split[at[inside]] = thresholds[inside]
        # sorted thresholds: two distinct values inside one bucket sit side by side
        mixed = inside[:, 1:] & inside[:, :-1] & (at[:, 1:] == at[:, :-1])
        mixed &= thresholds[:, 1:] != thresholds[:, :-1]
        self.mixed = bool(mixed.any())
        if self.mixed:
            self.next.reshape(-1, 2)[at[:, 1:][mixed]] = -1

    def __call__(self, rows, u):
        at = (u * (1 << BUCKET_BITS)).astype(np.intp)
        at += rows << BUCKET_BITS
        split = self.split.take(at)
        at <<= 1
        at += u >= split
        out = self.next.take(at)
        if self.mixed:
            exact = np.flatnonzero(out < 0)
            if exact.size:
                out[exact] = _next_states(self.nxt, self.thresholds, rows[exact], u[exact])
        return out


def _draw_rule(nxt, thresholds):
    """The next-state rule of the `_support_table` (nxt, thresholds): a
    `_Sampler` if its table fits in BUCKET_ENTRIES, else the exact count of
    `_next_states`. Both give the same next states."""
    if thresholds.shape[0] << BUCKET_BITS <= BUCKET_ENTRIES:
        return _Sampler(nxt, thresholds)
    return functools.partial(_next_states, nxt, thresholds)


def _coalesces(step, draws, start, chunks, num_states):
    """Whether walks fed the same draws, one from `start` and one from
    another state, meet within a chunk in at least three of four lanes.
    Lane i walks the draws of chunk i * chunks // PROBE_LANES from state
    i * num_states // PROBE_LANES. Walks that met stay together, so the
    lanes are never dropped; the probe gives up a quarter of the way
    through the chunk if fewer than a quarter of them have met."""
    lanes = np.arange(PROBE_LANES)
    t = np.tile(lanes * chunks // PROBE_LANES * CHUNK_STEPS, 2)
    cur = np.concatenate([np.full(PROBE_LANES, start), lanes * num_states // PROBE_LANES])
    for j in range(CHUNK_STEPS + 1):
        apart = np.count_nonzero(cur[:PROBE_LANES] != cur[PROBE_LANES:])
        met = 4 * apart <= PROBE_LANES
        if met or j == CHUNK_STEPS or (4 * j == CHUNK_STEPS and 4 * apart > 3 * PROBE_LANES):
            return met
        cur = step(cur, *(d.take(t) for d in draws))[0]
        t += 1


def _walk(make_step, loop, draws, start, records, num_states):
    """Fill records[:, t] with the state at step t of the path from `start`
    on `draws` (row 0) and the side outputs of that step (rows 1:).

    make_step() builds step(states, *draws_t), which advances many walks by
    one step at once, by `_draw_rule`, and gives (next states, *side
    outputs): once, for the probe and the passes. loop(i, t0, t1) walks
    records[:, t0:t1] from state i one step at a time and gives the state
    at step t1.

    The horizon is cut into chunks of CHUNK_STEPS steps. A first pass
    walks them all together, chunk 0 from `start` and every other one from
    `start` as a guess. Each repair pass then walks again, from the
    recorded end of the chunk before, every chunk whose recorded start
    differs from that end. It drops a chunk as soon as the new walk stands
    where the recorded walk stood at the same step: from there on both are
    fed the same draws, so the rest of the record is already the new walk
    (coupling). Chunk 0 is exact and a pass makes the next chunk exact, so
    once no start differs the records are the path, bit for bit, whatever
    the guesses were.

    The loop takes over where the passes would cost more than it: the
    whole path when it has fewer than MIN_CHUNKS chunks or the probe
    (`_coalesces`) finds too few walks meeting; the last LOOP_LANES
    chunks of a pass, each to its end; the path from its first chunk that
    is not exact after a pass in which fewer than half of the chunks met
    (so a pass walks at most half the chunks of the one before, and all
    passes fewer than 2K); and the steps after the last whole chunk."""
    T = records.shape[1]
    K = T // CHUNK_STEPS
    if K < MIN_CHUNKS or not _coalesces(step := make_step(), draws, start, K, num_states):
        loop(start, 0, T)
        return
    grids = records[:, : K * CHUNK_STEPS].reshape(len(records), K, CHUNK_STEPS)
    draws = [d[: K * CHUNK_STEPS].reshape(K, CHUNK_STEPS) for d in draws]
    cur = np.full(K, start)
    for j in range(CHUNK_STEPS):
        out = step(cur, *(d[:, j] for d in draws))
        for grid, value in zip(grids, (cur, *out[1:])):
            grid[:, j] = value
        cur = out[0]
    ends = cur
    pending = np.arange(1, K)
    while True:
        lanes = pending = pending[grids[0, pending, 0] != ends[pending - 1]]
        if not lanes.size:
            break
        cur = ends[lanes - 1]
        for j in range(CHUNK_STEPS):
            apart = cur != grids[0, lanes, j]
            if not apart.all():
                lanes, cur = lanes[apart], cur[apart]
            if lanes.size < LOOP_LANES:
                # the last few chunks walk to their ends in the loop
                cur = np.array([loop(i, k * CHUNK_STEPS + j, (k + 1) * CHUNK_STEPS)
                                for i, k in zip(cur.tolist(), lanes.tolist())], dtype=int)
                break
            out = step(cur, *(d[lanes, j] for d in draws))
            for grid, value in zip(grids, (cur, *out[1:])):
                grid[lanes, j] = value
            cur = out[0]
        changed = lanes[cur != ends[lanes]]
        ends[lanes] = cur
        walked, pending = pending.size, changed[changed < K - 1] + 1
        if 2 * changed.size > walked:
            break
    first = pending.min() if pending.size else K
    if first * CHUNK_STEPS < T:
        loop(ends[first - 1], first * CHUNK_STEPS, T)


def simulate_path(
    model: MdpModel,
    policy,
    T: int,
    seed: int = 0,
    start_state: int = 0,
) -> PathSample:
    """Sample a length-T trajectory under the policy, deterministic in seed.

    The draws are rng.random(T) for the next states of a deterministic
    policy, and rng.random(T) for the actions then rng.random(T) for the
    next states of a randomized one. Step t moves from state i by draw u to
    nxt[n, count(thresholds[n] <= u)] of the `_support_table` row n of its
    pair (and picks the action of a randomized policy the same way from
    its theta row), so the path is a function of the draws and the start.

    Long paths are walked in chunks, all at once in numpy (`_walk`): every
    chunk starts from a guess, and chunks whose guess was wrong are walked
    again from the true start until they meet their first walk, after which
    the two agree, being fed the same draws. The result is the path of the
    per-step loop, state for state. Short paths, and chains on which walks
    from two states rarely meet within a chunk, run in that loop, on Python
    lists of the table rows (a randomized policy's pair rows made on their
    first visit), which bisect fastest.
    """
    _integer(T, "path length", 1)
    if not 0 <= _integer(start_state, "start_state") < model.num_states:
        raise ValidationError(f"start_state {start_state} out of range")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    S, A = model.num_states, model.num_actions
    if isinstance(policy, DeterministicPolicy):
        policy.validate_for(model)
        nxt, thresholds = _support_table(*_positive_rows(*_policy_rows(model, policy.action)))
        u = rng.random(T)
        records = np.empty((1, T), dtype=int)

        def make_step():
            draw = _draw_rule(nxt, thresholds)
            return lambda cur, u_t: (draw(cur, u_t),)

        lists = functools.cache(lambda: (nxt.tolist(), thresholds.tolist()))

        def loop(i, t0, t1):
            nxt_rows, rows = lists()
            visited = []
            # a memoryview yields Python floats one at a time: they bisect
            # as fast as a list's, and T of them are never held at once
            for u_t in memoryview(u[t0:t1]):
                visited.append(i)
                i = nxt_rows[i][bisect_right(rows[i], u_t)]
            records[0, t0:t1] = visited
            return i

        _walk(make_step, loop, [u], start_state, records, S)
        states = records[0]
        reward = model.reward[np.arange(S), policy.action]
        return PathSample(states, policy.action.take(states), reward.take(states))
    if isinstance(policy, RandomizedPolicy):
        policy.validate_for(model)
        act, act_thresholds = _dense_support_table(policy.theta)
        nxt, thresholds = _support_table(*model._positive)
        ua = rng.random(T)
        us = rng.random(T)
        records = np.empty((2, T), dtype=int)

        def make_step():
            choose, move = _draw_rule(act, act_thresholds), _draw_rule(nxt, thresholds)

            def step(cur, ua_t, us_t):
                a = choose(cur, ua_t)
                return move(cur * A + a, us_t), a

            return step

        act_lists = functools.cache(lambda: (act.tolist(), act_thresholds.tolist()))
        # Python lists of a pair's table row, made on its first visit: the
        # floats of pairs never visited are not built
        rows = [None] * nxt.shape[0]

        def loop(i, t0, t1):
            act_rows, act_sums = act_lists()
            visited, chosen = [], []
            for u_a, u_s in zip(memoryview(ua[t0:t1]), memoryview(us[t0:t1])):
                visited.append(i)
                a = act_rows[i][bisect_right(act_sums[i], u_a)]
                chosen.append(a)
                p = i * A + a
                row = rows[p]
                if row is None:
                    row = rows[p] = (nxt[p].tolist(), thresholds[p].tolist())
                i = row[0][bisect_right(row[1], u_s)]
            records[0, t0:t1] = visited
            records[1, t0:t1] = chosen
            return i

        _walk(make_step, loop, [ua, us], start_state, records, S)
        states, actions = records
        return PathSample(states, actions, model.reward.take(states * A + actions))
    raise ValidationError(f"cannot simulate policy of type {type(policy).__name__}")


def _batch_half_width(estimates: np.ndarray) -> float:
    nb = len(estimates)
    if nb < 2:
        return 0.0
    spread = float(np.std(estimates, ddof=1))
    if spread == 0.0:
        return 0.0
    # Student's t quantile by the call scipy.stats.t.ppf(0.975, nb - 1)
    # makes, without the import of scipy.stats
    q = float(stdtrit(nb - 1, 0.975))
    return q * spread / np.sqrt(nb)


def estimate_metrics(
    path,
    beta: float,
    num_batches: int = DEFAULT_BATCHES,
    seed: int = 0,
) -> SimulationEstimate:
    """Time-average metric estimates from one path, with batch-means CIs.

    Accepts a PathSample or a bare reward sequence, which must be 1-D and
    hold numbers. The point estimates use the full path; half-widths come
    from the spread of per-batch estimates.
    """
    if isinstance(path, PathSample):
        rewards = path.rewards
    else:
        message = "rewards must be a 1-D sequence of numbers"
        rewards = np.asarray(_entries(path, "biuf", message), float)
        if rewards.ndim != 1:
            raise ValidationError(f"{message}, got shape {rewards.shape}")
    T = rewards.shape[0]
    if T < 2:
        raise ValidationError(f"need a path of length >= 2, got {T}")
    _integer(num_batches, "num_batches", 1)
    _check_seed(seed)
    _check_beta(beta)
    mean_hat = float(np.mean(rewards))
    var_hat = float(np.mean((rewards - mean_hat) ** 2))
    combined_hat = mean_hat - beta * var_hat
    nb = min(num_batches, T)
    bs = T // nb
    trimmed = rewards[: nb * bs].reshape(nb, bs)
    b_mean = trimmed.mean(axis=1)
    b_var = ((trimmed - b_mean[:, None]) ** 2).mean(axis=1)
    b_comb = b_mean - beta * b_var
    return SimulationEstimate(
        j_mean_hat=mean_hat,
        j_var_hat=var_hat,
        j_combined_hat=combined_hat,
        half_width_mean=_batch_half_width(b_mean),
        half_width_var=_batch_half_width(b_var),
        half_width_combined=_batch_half_width(b_comb),
        horizon=T,
        seed=seed,
    )


def _accumulate_cost(chain: _Chain, f, J, start, truncation, reps, seed):
    """Mean and spread over replications of sum_{t<=truncation} (f(X_t) - J)
    on the chain's rows (`evaluation._Chain`): the sampling table of their
    entries > 0, drawn by `_draw_rule`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, start]))
    draw = _draw_rule(*_support_table(*_positive_rows(chain.indptr, chain.cols, chain.values)))
    cur = np.full(reps, start, dtype=int)
    acc = np.zeros(reps)
    excess = f - J
    for t in range(truncation + 1):
        acc += excess[cur]
        if t == truncation:
            break
        cur = draw(cur, rng.random(reps))
    return float(acc.mean()), float(acc.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0


def estimate_potential(
    model: MdpModel,
    policy,
    state: int,
    truncation: int = 200,
    num_replications: int = 10_000,
    seed: int = 0,
    j_combined: float | None = None,
) -> PotentialEstimate:
    """Truncated-sum potential estimate at one state, pinned so state 0 is 0.

    Averages sum_{t=0}^{truncation} (f(X_t) - J) over replications started
    at `state`, then subtracts the same estimate started at state 0. J is
    the exact combined metric unless supplied.
    """
    _integer(truncation, "truncation", 1)
    if not 0 <= _integer(state, "state") < model.num_states:
        raise ValidationError(f"state {state} out of range")
    _integer(num_replications, "num_replications", 1)
    _check_seed(seed)
    chain, r, m2 = _policy_chain(model, policy)
    # evaluated first, so that a policy without a unique stationary
    # distribution raises also at state 0
    report = _sole(_evaluate_chains(chain, r, m2, [0], [model.beta]))
    if state == 0:
        return PotentialEstimate(0.0, 0.0, state, truncation, num_replications, seed)
    f = report.cost
    if j_combined is None:
        j_combined = report.j_combined
    mean_s, se_s = _accumulate_cost(chain, f, j_combined, state, truncation, num_replications, seed)
    mean_0, se_0 = _accumulate_cost(chain, f, j_combined, 0, truncation, num_replications, seed)
    return PotentialEstimate(
        value=mean_s - mean_0,
        std_error=float(np.hypot(se_s, se_0)),
        state=state,
        truncation=truncation,
        num_replications=num_replications,
        seed=seed,
    )
