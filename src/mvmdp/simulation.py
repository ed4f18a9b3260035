"""Monte Carlo oracle: sample-path estimates of the long-run metrics and of
the performance potential, with batch-means confidence intervals. These are
the independent cross-checks for the exact evaluation module."""
from __future__ import annotations

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
    _csr,
    _integer,
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
    """_support_table of the dense probability rows `rows`, from the CSR
    of their entries > 0."""
    flat = np.flatnonzero(rows > 0)
    indptr, cols = _csr(flat, *rows.shape)
    return _support_table(indptr, cols, rows.reshape(-1)[flat])


def simulate_path(
    model: MdpModel,
    policy,
    T: int,
    seed: int = 0,
    start_state: int = 0,
) -> PathSample:
    """Sample a length-T trajectory under the policy, deterministic in seed.

    Each step draws its next state from the `_support_table` of the
    model's positive-entry table (`MdpModel._positive`), whose rows become
    Python lists, which bisect
    fastest: the S rows of a deterministic policy's pairs at once, a
    randomized policy's on first visit of their pair.
    """
    _integer(T, "path length", 1)
    if not 0 <= _integer(start_state, "start_state") < model.num_states:
        raise ValidationError(f"start_state {start_state} out of range")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    A = model.num_actions
    if isinstance(policy, DeterministicPolicy):
        policy.validate_for(model)
        pairs = np.arange(model.num_states) * A + policy.action
        nxt, thresholds = (t[pairs].tolist() for t in _support_table(*model._positive))
        visited = []
        i = start_state
        # a memoryview yields Python floats one at a time: they bisect as fast
        # as a list's, and T of them are never held at once
        for u in memoryview(rng.random(T)):
            visited.append(i)
            i = nxt[i][bisect_right(thresholds[i], u)]
        states = np.array(visited, dtype=int)
        actions = policy.action[states]
        return PathSample(states, actions, model.reward[states, actions])
    if isinstance(policy, RandomizedPolicy):
        policy.validate_for(model)
        act, act_thresholds = (t.tolist() for t in _dense_support_table(policy.theta))
        nxt, thresholds = _support_table(*model._positive)
        # Python lists of a pair's table row, made on its first visit: the
        # floats of pairs never visited are not built
        rows = [None] * nxt.shape[0]
        ua = rng.random(T)
        us = rng.random(T)
        visited, chosen = [], []
        i = start_state
        for u_a, u_s in zip(memoryview(ua), memoryview(us)):
            visited.append(i)
            a = act[i][bisect_right(act_thresholds[i], u_a)]
            chosen.append(a)
            p = i * A + a
            row = rows[p]
            if row is None:
                row = rows[p] = (nxt[p].tolist(), thresholds[p].tolist())
            i = row[0][bisect_right(row[1], u_s)]
        states = np.array(visited, dtype=int)
        actions = np.array(chosen, dtype=int)
        return PathSample(states, actions, model.reward[states, actions])
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

    Accepts a PathSample or a bare reward sequence. The point estimates use
    the full path; half-widths come from the spread of per-batch estimates.
    """
    rewards = path.rewards if isinstance(path, PathSample) else np.asarray(path, float)
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
    entries > 0."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, start]))
    nxt, thresholds = _support_table(*_positive_rows(chain.indptr, chain.cols, chain.values))
    cur = np.full(reps, start, dtype=int)
    acc = np.zeros(reps)
    excess = f - J
    for t in range(truncation + 1):
        acc += excess[cur]
        if t == truncation:
            break
        u = rng.random(reps)
        cur = nxt[cur, (thresholds[cur] <= u[:, None]).sum(axis=1)]
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
    report = _sole(_evaluate_chains(chain, r, m2, model.beta))
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
