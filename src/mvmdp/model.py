"""Finite MDP model, policies, induced chains, and model I/O.

States and actions are 0-based indices. The transition kernel is stored
sparse, by feasible (state, action) pair: a CSR (`_KernelCSR`) whose row
i * A + a holds the column and value of every entry of kernel[i, a] that is
not +0.0 (a -0.0 is kept, since the model file writes it). Infeasible pairs
have empty rows. At B=200 with abandonment (S=1206, A=8) that is 39,690
entries, 0.47 MB, where the dense (S, A, S) array is 93 MB; at B=1000 it is
2.4 MB against 2.3 GB.

Each rule of the CSR has one implementation. The decoder, `_scatter_rows`,
writes CSR rows into zeroed dense rows: the on-demand `MdpModel.kernel`,
the (k, A, S) blocks of about _BLOCK_BYTES that `kernel @ g` reads
(`sensitivity._kernel_times`), a policy's chain and a row near the sum
tolerance (`_check_kernel_rows`). A randomized policy's chain is one
scatter-add of the theta-weighted entries. The encoder, `_csr_of_entries`,
turns entries in (pair, column) order into a _KernelCSR. The scan,
`_dense_rows`, makes CSR rows of every dense matrix: a kernel, model-file
rows, a chain's P and theta. The positive-entry rule, `_positive_rows`,
makes the model's table `MdpModel._positive`, built once (the successor
table and the table of a randomized walk are read from it), and the support
graph and walk table of every chain's rows. No package path reads the
dense kernel; it is a view for callers.
"""
from __future__ import annotations

import functools
import io
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse.csgraph._traversal import _connected_components_directed

from .errors import FeasibilityError, ModelIOError, ValidationError

ROW_SUM_TOL = 1e-12
# the bytes of one dense block: of the kernel, rebuilt from the CSR for
# kernel @ g, or of a chunk of stacked chain matrices
_BLOCK_BYTES = 1 << 20


class _KernelCSR(NamedTuple):
    """A kernel of shape (S, A, S), stored by pair p = i * A + a: the
    entries of kernel[i, a] that are not +0.0 are values[indptr[p]:
    indptr[p + 1]], at the columns cols[indptr[p]:indptr[p + 1]], in
    increasing order. The arrays are read-only; cols are 2-byte integers
    wherever S allows, so that even a kernel without zeros takes less than
    1.5 times its dense size."""

    shape: tuple
    indptr: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _col_dtype(S: int):
    return np.uint16 if S <= 1 << 16 else np.int32


def _kernel_csr(S: int, A: int, counts: np.ndarray, cols, values) -> _KernelCSR:
    """The read-only _KernelCSR of the entries (cols, values), laid out pair
    by pair, counts[p] of them for pair p."""
    indptr = np.zeros(S * A + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cols = np.asarray(cols, dtype=_col_dtype(S))
    return _KernelCSR((S, A, S), *_read_only(indptr, cols, np.asarray(values, dtype=float)))


def _read_only(*arrays) -> tuple:
    """arrays, each set read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _kept(values: np.ndarray) -> np.ndarray:
    """Where the float64 values are not +0.0, the one value whose bits are
    all zero: the entries a _KernelCSR stores."""
    return values.view(np.int64) != 0


def _csr_of_entries(S: int, A: int, pairs: np.ndarray, cols, values) -> _KernelCSR:
    """The encoder: the _KernelCSR of the kernel entries `values` at pairs
    `pairs` and columns `cols`, listed in (pair, column) order. The +0.0
    entries are dropped and the -0.0 kept (`_kept`)."""
    keep = _kept(values)
    counts = np.bincount(pairs[keep], minlength=S * A)
    return _kernel_csr(S, A, counts, cols[keep], values[keep])


def _dense_rows(X: np.ndarray):
    """(indptr, cols, values): the CSR rows (`_csr`) of the entries of the
    2-D float array X that `_kept` keeps; the one dense-to-rows scan."""
    X = np.ascontiguousarray(X, dtype=float)
    flat = np.flatnonzero(_kept(X))
    return (*_csr(flat, *X.shape), X.reshape(-1)[flat])


def _dense_csr(kernel: np.ndarray, mask: np.ndarray) -> _KernelCSR:
    """The _KernelCSR of the rows of the dense kernel that `mask` selects."""
    S, A = mask.shape
    indptr, cols, values = _dense_rows(kernel.reshape(S * A, S))
    return _restrict(_kernel_csr(S, A, np.diff(indptr), cols, values), mask)


def _restrict(csr: _KernelCSR, mask: np.ndarray) -> _KernelCSR:
    """csr without the rows of the pairs `mask` does not select."""
    counts = np.diff(csr.indptr)
    if not counts[~mask.reshape(-1)].any():
        return csr
    feasible = mask.reshape(-1)
    keep = np.repeat(feasible, counts)
    S, A = mask.shape
    return _kernel_csr(S, A, np.where(feasible, counts, 0), csr.cols[keep], csr.values[keep])


def _scatter_rows(out: np.ndarray, indptr: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The decoder: write CSR row n, the entries indptr[n]:indptr[n + 1] of
    cols and values (indptr may be a slice), into row n of the zeroed,
    C-ordered `out`; return the flat positions written."""
    lo, hi = indptr[0], indptr[-1]
    at = np.repeat(np.arange(indptr.size - 1) * out.shape[-1], np.diff(indptr))
    at += cols[lo:hi]
    out.reshape(-1)[at] = values[lo:hi]
    return at


def _positive_rows(indptr: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """(indptr, cols, values) of the entries > 0 of the CSR (indptr, cols,
    values), row by row: no -0.0. cols is int32, the index type csgraph
    takes."""
    if values.min(initial=1.0) > 0:
        return indptr, cols.astype(np.int32), values
    positive = values > 0
    before = np.zeros(positive.size + 1, dtype=np.int64)
    np.cumsum(positive, out=before[1:])
    return before[indptr], cols[positive].astype(np.int32), values[positive]


def _gather_rows(indptr: np.ndarray, rows: np.ndarray, *entries):
    """(indptr, *entries) of the CSR made of the rows `rows`, in that order,
    of the CSR (indptr, *entries)."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=out[1:])
    take = np.repeat(starts - out[:-1], counts) + np.arange(out[-1])
    return (out, *(column[take] for column in entries))


@dataclass(frozen=True, init=False)
class MdpModel:
    """Finite MDP with state-dependent feasible action sets.

    Fields:
        num_states: S >= 1.
        num_actions: A >= 1 (global action indexing; per-state subsets in
            `feasible`).
        feasible: tuple of per-state sorted tuples of allowed action indices.
        reward: (S, A) array, reward[i, a] for feasible (i, a).
        beta: risk-tradeoff weight, > 0.
        kernel_csr: the transition kernel, stored by feasible pair (see
            `_KernelCSR`).

    `MdpModel(S, A, feasible, kernel, reward, beta)` takes the kernel as a
    dense (S, A, S) array, kernel[i, a] the next-state distribution of
    feasible (i, a), and keeps only its CSR. When `kernel` is None the
    model takes `kernel_csr` instead; that is what `dataclasses.replace`
    passes, so a copy with another beta shares the CSR. `kernel` reads the
    dense array back (see there).
    """

    num_states: int
    num_actions: int
    feasible: tuple
    reward: np.ndarray
    beta: float
    kernel_csr: _KernelCSR = field(repr=False)

    def __init__(
        self, num_states, num_actions, feasible, kernel=None, reward=None, beta=None, kernel_csr=None
    ):
        if (kernel is None and kernel_csr is None) or reward is None or beta is None:
            raise TypeError("MdpModel needs a kernel (or kernel_csr), reward and beta")
        put = functools.partial(object.__setattr__, self)
        try:
            feasible, actions, lengths = _action_lists(feasible)
        except TypeError as exc:
            raise ValidationError(f"feasible must hold lists of integer actions: {exc}") from None
        put("num_states", _integer(num_states, "num_states"))
        put("num_actions", _integer(num_actions, "num_actions"))
        put("feasible", feasible)
        kernel = kernel_csr if kernel is None else _reals(kernel, "kernel")
        put("reward", _reals(reward, "reward"))
        put("beta", _real(beta, "beta"))
        mask = _validate_model(self, kernel, actions, lengths)
        self.reward.setflags(write=False)
        mask.setflags(write=False)
        put("_feasible_mask", mask)

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """The dense (S, A, S) kernel: kernel[i, a] is the next-state
        distribution of feasible (i, a); infeasible rows are zero. Built
        from the CSR on first access, then cached and read-only."""
        S, A = self.num_states, self.num_actions
        dense = np.zeros((S, A, S))
        _scatter_rows(dense, *self.kernel_csr[1:])
        dense.setflags(write=False)
        return dense

    def feasible_mask(self) -> np.ndarray:
        """Read-only boolean (S, A) mask of feasible pairs, built once."""
        return self._feasible_mask

    @functools.cached_property
    def _feasible_actions(self):
        A, mask = self.num_actions, self._feasible_mask
        return _read_only(np.sort(np.where(mask, np.arange(A), A), axis=1), mask.sum(axis=1))

    def feasible_actions(self):
        """(actions, counts), read-only and built once: row i of the (S, A)
        `actions` holds the counts[i] feasible actions of state i in
        increasing order, then A in the columns left over."""
        return self._feasible_actions

    @functools.cached_property
    def _positive(self):
        """The positive-entry table (indptr, succ, prob), read-only and
        built on first use: the CSR of the entries > 0 of `kernel_csr` (no
        -0.0). succ is int32, the index type csgraph takes."""
        return _read_only(*_positive_rows(*self.kernel_csr[1:]))

    def successor_table(self):
        """(indptr, succ), read-only and built on first use: the next states
        j with kernel[i, a, j] > 0 of the pair p = i * A + a are
        succ[indptr[p]:indptr[p + 1]], in increasing order. Infeasible pairs
        have none. It is the positive-entry table without its values."""
        return self._positive[:2]

    def num_policies(self) -> int:
        return math.prod(self._feasible_actions[1].tolist())


def _action_lists(feasible):
    """(states, actions, lengths): `feasible` as a tuple of per-state
    tuples of ints in increasing order, and the same actions as one array,
    state by state, with each state's count. Raises the TypeError of
    iterating a state or of `operator.index` on an action, for the first
    state in order that is not a list of integers."""
    states = tuple(tuple(sorted(map(operator.index, acts))) for acts in feasible)
    flat = list(itertools.chain.from_iterable(states))
    lengths = np.fromiter(map(len, states), dtype=np.int64, count=len(states))
    # an action beyond int64 makes an object array, which compares alike
    actions = np.array(flat) if flat else np.zeros(0, dtype=np.int64)
    return states, actions, lengths


def _first_bad_state(feasible: tuple, actions: np.ndarray, lengths: np.ndarray, A: int):
    """(i, message): the first state i whose sorted action list in
    `feasible` is empty, holds an action outside [0, A) or repeats one,
    and why, the first of those reasons that holds; (number of states,
    None) when there is none. `actions` holds the lists end to end."""
    state = np.repeat(np.arange(lengths.size), lengths)
    empty = lengths == 0
    outside, repeated = np.zeros_like(empty), np.zeros_like(empty)
    outside[state[(actions < 0) | (actions >= A)]] = True
    repeated[state[1:][(actions[1:] == actions[:-1]) & (state[1:] == state[:-1])]] = True
    first = np.flatnonzero(empty | outside | repeated)
    if not first.size:
        return int(lengths.size), None
    i = int(first[0])
    if empty[i]:
        return i, f"state {i} has no feasible action"
    if outside[i]:
        return i, f"state {i} lists action outside [0, {A}): {feasible[i]}"
    return i, f"state {i} lists duplicate actions: {feasible[i]}"


def _integer(value, name: str, low: int | None = None) -> int:
    """value as an int, at least `low` when given; ValidationError for a
    bool, a float, a string or any other value that is not an integer, which
    would otherwise be truncated, taken as 0 or 1, or fail later with a bare
    TypeError, and "<name> must be >= <low>, got <n>" below the floor."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and n < low:
        raise ValidationError(f"{name} must be >= {low}, got {n}")
    return n


def _real(value, name: str) -> float:
    """value as a float; ValidationError "<name> must be a real number, got
    <value!r>" for a bool, a string or any other value that is not a real
    number, which would otherwise fail later with a bare TypeError or
    ValueError, or be taken as 0 or 1, and "<name> is too large for a
    float" for a real number beyond the float range, such as 10**400,
    whose digits are not echoed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None


def _check_seed(seed) -> None:
    """The one seed rule: an integer >= 0, as numpy's generators take;
    ValidationError naming `seed` otherwise."""
    if _integer(seed, "seed") < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def _check_beta(beta) -> float:
    """beta as a float: a real number, > 0 and finite; ValidationError
    otherwise."""
    beta = _real(beta, "beta")
    if not beta > 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")
    return beta


def _check_rows(rows: np.ndarray, name: str) -> None:
    """The one rule for probability rows: raise ValidationError for the first
    row along the last axis of `rows` (in index order) with a negative entry
    or a sum not within ROW_SUM_TOL of 1, a NaN sum included. The message is
    "<name> has a negative entry" or "<name> sums to <sum>, expected 1",
    `name` formatted with the row's index.
    Whole-array reductions: nothing of the size of `rows` is allocated."""
    sums = rows.sum(axis=-1)
    # `not <=` also rejects NaN sums, which NaN or inf entries give
    bad = (rows.min(axis=-1, initial=0.0) < 0) | ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
    first = np.flatnonzero(bad)
    if first.size:
        index = np.unravel_index(first[0], bad.shape)
        name = name.format(*map(int, index))
        # a NaN row minimum hides a negative entry; the row itself does not
        if np.any(rows[index] < 0):
            raise ValidationError(f"{name} has a negative entry")
        raise ValidationError(f"{name} sums to {float(sums[index])!r}, expected 1")


def _segment_reduce(ufunc, values: np.ndarray, indptr: np.ndarray, empty: float) -> np.ndarray:
    """ufunc.reduce over each CSR row of values, `empty` for an empty row."""
    out = np.full(indptr.size - 1, empty)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[nonempty] = ufunc.reduceat(values, indptr[nonempty])
    return out


def _check_kernel_rows(model: MdpModel, where: np.ndarray) -> None:
    """`_check_rows` over the kernel rows of the pairs `where` selects, named
    "kernel row i,a", from the CSR. Summed in any order, n finite entries
    >= 0 come within (n - 1) 2**-53 times their sum of the exact sum, and
    the zeros of a dense row add exactly, so the sums of a row's CSR entries
    and of its dense row differ by less than n eps times the sum. A row
    whose CSR sum lies within ROW_SUM_TOL of 1 by more than that passes;
    every other selected row, in pair order, is rebuilt dense and checked by
    `_check_rows`, so its verdict and message are the dense row's."""
    csr, A = model.kernel_csr, model.num_actions
    sums = _segment_reduce(np.add, csr.values, csr.indptr, 0.0)
    lows = _segment_reduce(np.minimum, csr.values, csr.indptr, 0.0)
    margin = np.finfo(float).eps * np.diff(csr.indptr) * np.maximum(np.abs(sums), 1.0)
    clear = (lows >= 0) & (np.abs(sums - 1.0) <= ROW_SUM_TOL - margin)
    for p in np.flatnonzero(where.reshape(-1) & ~clear).tolist():
        i, a = divmod(p, A)
        row = np.zeros((1, model.num_states))
        _scatter_rows(row, csr.indptr[p : p + 2], csr.cols, csr.values)
        _check_rows(row, f"kernel row {i},{a}")


def _validate_model(model: MdpModel, kernel, actions: np.ndarray, lengths: np.ndarray):
    """Check the model, set its `kernel_csr` from `kernel` (a dense array or
    a _KernelCSR) and return its (S, A) feasible mask.

    Raises ValidationError for the first problem in state order: a state's
    action list is checked before its pairs, and each feasible pair's kernel
    row (`_check_rows`) before its reward (finite).
    """
    S, A = model.num_states, model.num_actions
    if S < 1 or A < 1:
        raise ValidationError(f"need at least one state and action, got S={S}, A={A}")
    _check_beta(model.beta)
    if len(model.feasible) != S:
        raise ValidationError(f"feasible has {len(model.feasible)} entries, expected {S}")
    if kernel.shape != (S, A, S):
        raise ValidationError(f"kernel shape {kernel.shape} != {(S, A, S)}")
    if model.reward.shape != (S, A):
        raise ValidationError(f"reward shape {model.reward.shape} != {(S, A)}")
    first_bad_state, state_error = _first_bad_state(model.feasible, actions, lengths, A)
    # the pairs of the states before the first bad one, all of them valid
    good = int(lengths[:first_bad_state].sum())
    mask = np.zeros((S, A), dtype=bool)
    states = np.repeat(np.arange(first_bad_state), lengths[:first_bad_state])
    mask[states, actions[:good].astype(np.intp)] = True
    csr = _dense_csr(kernel, mask) if isinstance(kernel, np.ndarray) else _restrict(kernel, mask)
    object.__setattr__(model, "kernel_csr", csr)
    # each pair's kernel row comes before its reward, and both before later pairs
    bad_reward = np.flatnonzero(mask & ~np.isfinite(model.reward))
    rows_first = mask.copy()
    if bad_reward.size:
        rows_first.flat[bad_reward[0] + 1 :] = False
    _check_kernel_rows(model, rows_first)
    if bad_reward.size:
        i, a = divmod(int(bad_reward[0]), A)
        raise ValidationError(f"reward {i},{a} is not finite")
    if first_bad_state < S:
        raise ValidationError(state_error)
    return mask


@dataclass(frozen=True)
class DeterministicPolicy:
    """State-to-action mapping d(i)."""

    action: np.ndarray

    def __post_init__(self):
        action = _entries(self.action, "iu", "policy action table must hold integers")
        object.__setattr__(self, "action", np.asarray(action, dtype=int))
        if self.action.ndim != 1:
            raise ValidationError("policy action table must be 1-dimensional")
        self.action.setflags(write=False)
        # the table is read-only, so its hash is taken once; the solvers'
        # memos look each policy up many times
        object.__setattr__(self, "_hash", hash(self.action.tobytes()))

    def validate_for(self, model: MdpModel) -> None:
        _check_policies(model, (self,))

    def as_randomized(self, model: MdpModel) -> "RandomizedPolicy":
        theta = np.zeros((model.num_states, model.num_actions))
        theta[np.arange(model.num_states), self.action] = 1.0
        return RandomizedPolicy(theta)

    def __eq__(self, other) -> bool:
        # both tables are 1-D and of numpy's int: equal bytes, equal tables;
        # the memos compare equal policies that are distinct objects
        return (
            isinstance(other, DeterministicPolicy)
            and self.action.tobytes() == other.action.tobytes()
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # bytes hash differently in another process: rebuild, not copy, the hash
        return DeterministicPolicy, (self.action,)


@dataclass(frozen=True)
class RandomizedPolicy:
    """Per-state probability rows theta[i, a] over actions."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _reals(self.theta, "theta"))
        if self.theta.ndim != 2:
            raise ValidationError("theta must be 2-dimensional (states x actions)")
        self.theta.setflags(write=False)

    def validate_for(self, model: MdpModel) -> None:
        S, A = model.num_states, model.num_actions
        if self.theta.shape != (S, A):
            raise ValidationError(f"theta shape {self.theta.shape} != {(S, A)}")
        _check_rows(self.theta, "theta row {}")
        mask = model.feasible_mask()
        if np.any(self.theta[~mask] != 0):
            i, a = np.argwhere((self.theta != 0) & ~mask)[0]
            raise FeasibilityError(
                f"theta puts mass on infeasible action {int(a)} at state {int(i)}"
            )


@dataclass(frozen=True)
class MixedPolicy:
    """Randomization between two deterministic policies: base w.p. 1-delta,
    alt w.p. delta, independently at each state."""

    base: DeterministicPolicy
    alt: DeterministicPolicy
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _real(self.delta, "delta"))
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta must be in [0, 1], got {self.delta}")

    def as_randomized(self, model: MdpModel) -> RandomizedPolicy:
        tb = self.base.as_randomized(model).theta
        ta = self.alt.as_randomized(model).theta
        return RandomizedPolicy((1.0 - self.delta) * tb + self.delta * ta)


def _check_policies(model: MdpModel, policies) -> np.ndarray:
    """The action tables of the deterministic `policies` as one (M, S)
    array, checked against the model as `validate_for` checks one: a
    ValidationError for the first table of the wrong length, else a
    FeasibilityError for the first infeasible action, in policy order and
    then state order."""
    S = model.num_states
    for policy in policies:
        if policy.action.shape != (S,):
            raise ValidationError(f"policy has {policy.action.shape[0]} states, model has {S}")
    a = np.array([policy.action for policy in policies])
    in_range = (a >= 0) & (a < model.num_actions)
    ok = in_range & model.feasible_mask()[np.arange(S), np.where(in_range, a, 0)]
    if not ok.all():
        bad = np.flatnonzero(~ok)
        i = int(bad[0]) % S
        raise FeasibilityError(f"action {int(a.flat[bad[0]])} is infeasible at state {i}")
    return a


def induced_chain(model: MdpModel, policy: DeterministicPolicy):
    """Transition matrix P[i, j] = kernel[i, d(i), j] and reward vector
    r[i] = reward[i, d(i)] of the chain the policy induces. P is made by
    scattering the policy's pairs' CSR rows into zeros: the kernel's
    floats."""
    policy.validate_for(model)
    S = model.num_states
    P = np.zeros((S, S))
    _scatter_rows(P, *_policy_rows(model, policy.action))
    return P, model.reward[np.arange(S), policy.action]


def _policy_rows(model: MdpModel, action: np.ndarray):
    """(indptr, cols, values): the CSR rows of `kernel_csr` of the pairs
    (i, action[i]), gathered in state order. They are the chain of the
    feasible action table `action` as CSR, every entry that is not +0.0.
    For an (M, S) stack of tables the M chains' rows follow each other."""
    csr = model.kernel_csr
    pairs = np.arange(model.num_states) * model.num_actions + action
    return _gather_rows(csr.indptr, pairs.reshape(-1), csr.cols, csr.values)


def induced_chain_randomized(model: MdpModel, policy: RandomizedPolicy):
    """Mixture chain of a randomized policy.

    Returns (P, r_mean, r_second_moment). The second moment row
    sum_a theta[i,a] * reward[i,a]**2 is what the mean-variance cost of a
    randomized policy needs; the variance is a mixture of per-action
    quadratics, not the quadratic of the mixed reward. P is one scatter-add
    of the theta-weighted CSR entries in pair order, so each P[i, j] is
    summed from +0.0 in action order, as over the dense kernel.
    """
    policy.validate_for(model)
    theta = policy.theta
    S, A = model.num_states, model.num_actions
    _, indptr, cols, values = model.kernel_csr
    pairs = np.repeat(np.arange(S * A), np.diff(indptr))
    P = np.zeros((S, S))
    np.add.at(P.reshape(-1), pairs // A * S + cols, theta.reshape(-1)[pairs] * values)
    r_mean = np.einsum("ia,ia->i", theta, model.reward)
    r_m2 = np.einsum("ia,ia->i", theta, model.reward**2)
    return P, r_mean, r_m2


def induced_chain_mixed(model: MdpModel, mixed: MixedPolicy):
    """Chain of a mixed policy: P + delta (P' - P), r + delta (r' - r)."""
    Pb, rb = induced_chain(model, mixed.base)
    Pa, ra = induced_chain(model, mixed.alt)
    d = mixed.delta
    return Pb + d * (Pa - Pb), rb + d * (ra - rb)


def _csr(flat: np.ndarray, rows: int, width: int):
    """(indptr, cols) of the entries at the sorted flat indices `flat` of a
    row-major (rows, width) array: row r's columns are
    cols[indptr[r]:indptr[r + 1]], in increasing order, as int64."""
    r = flat // width  # with the product below, half the time of np.divmod
    return np.searchsorted(r, np.arange(rows + 1)), flat - r * width


def _square(P) -> np.ndarray:
    """P as a float array; a ValidationError unless it is square 2-D and
    holds real numbers."""
    P = _reals(P, "transition matrix")
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {P.shape}")
    return P


def _support(P: np.ndarray):
    """The support graph of the square matrix P, whose edges are the
    entries > 0, as (indptr, cols)."""
    return _positive_rows(*_dense_rows(_square(P)))[:2]


def _policy_support(model: MdpModel, action: np.ndarray):
    """The support graph of the chain of the feasible action table `action`,
    as (indptr, cols): the successor table's rows of the pairs (i, action[i]),
    gathered in state order. It equals `_support` of the induced chain."""
    table_ptr, succ = model.successor_table()
    return _gather_rows(table_ptr, np.arange(model.num_states) * model.num_actions + action, succ)


def _strong_components(indptr: np.ndarray, cols: np.ndarray):
    """(n, labels): the strongly connected components of the graph (indptr,
    cols) on indptr.size - 1 nodes, numbered as
    `connected_components(..., connection="strong")` numbers them.

    It calls the Pearce (2005) routine that function runs once it has
    validated its input, on the CSR arrays cast to int32, so no sparse
    matrix is built. No row may
    list a column twice: on a repeated edge the routine
    (scipy 1.17.1) does not return. Every graph here has unique edges: the
    kernel's CSR rows, the rows gathered from them, the scan of a dense
    matrix (`_dense_rows`) and the `np.unique` of the union graph in
    `check_ergodicity`, which the successor table's rows alone would not
    give.
    """
    # the labels start as connected_components starts them
    labels = np.full(indptr.size - 1, -9999, dtype=np.int32)
    cols, indptr = (index.astype(np.int32, copy=False) for index in (cols, indptr))
    n = _connected_components_directed(cols, indptr, labels)
    return n, labels


def _irreducible(indptr: np.ndarray, cols: np.ndarray) -> bool:
    """True when the graph (indptr, cols) is a single strong component."""
    return _strong_components(indptr, cols)[0] == 1


def _closed_classes(indptr: np.ndarray, cols: np.ndarray) -> int:
    """Number of strong components of the graph (indptr, cols) that no edge
    leaves."""
    return int(_closed_class_counts(indptr, cols, 1)[0])


def _closed_class_counts(indptr: np.ndarray, cols: np.ndarray, graphs: int) -> np.ndarray:
    """Per graph, the number of its strong components that no edge leaves,
    where (indptr, cols) is the disjoint union of `graphs` graphs of equal
    size: node i of graph m is node m * size + i, and no edge joins two
    graphs. One strong-components pass over the union gives every count,
    since each component lies in one graph."""
    n, labels = _strong_components(indptr, cols)
    if n == graphs:
        # every graph has at least one component, so each has exactly one
        return np.ones(graphs, dtype=np.int64)
    src = np.repeat(labels, np.diff(indptr))
    closed = np.ones(n, dtype=bool)
    closed[src[src != labels[cols]]] = False
    graph = np.empty(n, dtype=np.int64)
    graph[labels] = np.arange(labels.size) // (labels.size // graphs)
    return np.bincount(graph[closed], minlength=graphs)


def closed_class_count(P: np.ndarray) -> int:
    """Number of closed communicating classes of the support graph of P.

    P is any square matrix (array or nested list); its rows need not be
    stochastic. Entries <= 0 are not edges; a class is closed when no edge
    leaves it. 1 means the stationary distribution is unique (irreducible
    or unichain); 2 or more means it is not; a 0x0 P has 0. One
    strong-components pass on the support's CSR arrays gives the count
    (`_strong_components`). Raises ValidationError when P is not square 2-D.
    """
    return _closed_classes(*_support(P))


def is_irreducible(P: np.ndarray) -> bool:
    """True when the support graph of the square matrix P (array or nested
    list, rows need not be stochastic) is a single strongly connected
    class: one strong-components pass on its CSR arrays. A 0x0 P is not.
    Raises ValidationError when P is not square 2-D."""
    return _irreducible(*_support(P))


def _draw_feasible(model: MdpModel, rng: np.random.Generator, states: np.ndarray) -> np.ndarray:
    """One uniform draw over the feasible actions of each of `states`, in
    order. Consumes `rng` exactly as one `rng.choice(model.feasible[i])` per
    state would: vector `integers` with per-state highs draws state by state."""
    actions, counts = model.feasible_actions()
    return actions[states, rng.integers(0, counts[states])]


@dataclass(frozen=True)
class ErgodicityReport:
    """Outcome of check_ergodicity. `mode` is "enumeration" when every
    deterministic policy was checked, otherwise "sampling"."""

    mode: str
    union_irreducible: bool
    violations: tuple
    policies_checked: int

    @property
    def all_irreducible(self) -> bool:
        return self.union_irreducible and not self.violations


def check_ergodicity(
    model: MdpModel,
    sample_size: int = 100,
    seed: int = 0,
    enumeration_cap: int = 10**6,
) -> ErgodicityReport:
    """Report deterministic policies whose induced chain is not irreducible.

    Enumerates the policy space when it has at most `enumeration_cap`
    members; otherwise checks the union-support chain (its reducibility
    would condemn every policy) plus `sample_size` seeded random policies.
    Every check reads the model's successor table, not the dense kernel:
    the union chain's edges are all the feasible pairs' successors, and a
    policy's are the rows of its pairs. Always returns a report; callers
    decide whether violations are fatal.
    """
    _integer(sample_size, "sample_size", 0)
    enumeration_cap = _integer(enumeration_cap, "enumeration_cap", 0)
    _check_seed(seed)
    S, A = model.num_states, model.num_actions
    indptr, succ = model.successor_table()
    # state * S + next state for every edge of every feasible pair, deduplicated
    pair_state = np.repeat(np.arange(S * A) // A, np.diff(indptr))
    union_ok = _irreducible(*_csr(np.unique(pair_state * S + succ), S, S))

    if model.num_policies() <= enumeration_cap:
        mode = "enumeration"
        policies = (
            DeterministicPolicy(np.array(combo)) for combo in itertools.product(*model.feasible)
        )
    else:
        mode = "sampling"
        rng = np.random.default_rng(seed)
        policies = (
            sample_random_policy(model, rng, require_irreducible=False)
            for _ in range(sample_size)
        )
    violations = []
    checked = 0
    for d in policies:
        if not _irreducible(*_policy_support(model, d.action)):
            violations.append(d)
        checked += 1
    return ErgodicityReport(mode, union_ok, tuple(violations), checked)


def sample_random_policy(
    model: MdpModel,
    rng: np.random.Generator,
    require_irreducible: bool = True,
    max_tries: int = 1000,
) -> DeterministicPolicy:
    """Draw a policy uniformly over feasible actions at each state.

    Each draw takes one random integer per state, in state order, so the
    stream is the one a per-state `rng.choice` loop consumes. With
    `require_irreducible` the draw is repeated, up to `max_tries` times,
    until the induced chain is structurally irreducible, which is what
    solvers need for a start; each check gathers the drawn pairs' rows of
    the model's successor table, so no dense chain is built. Raises
    ValidationError when no draw passes.
    """
    states = np.arange(model.num_states)
    for _ in range(_integer(max_tries, "max_tries", 1)):
        d = DeterministicPolicy(_draw_feasible(model, rng, states))
        if not require_irreducible or _irreducible(*_policy_support(model, d.action)):
            return d
    raise ValidationError(
        f"no irreducible policy found in {max_tries} uniform draws; "
        "the model may violate the ergodicity assumption everywhere"
    )


def _pair_key(i: int, a: int) -> str:
    return f"{i},{a}"


def _feasible_pairs(model: MdpModel):
    """The feasible (i, a) pairs as two int lists, state by state and by
    action within a state: the pair order of model files and score CSVs."""
    rows, cols = np.nonzero(model.feasible_mask())
    return rows.tolist(), cols.tolist()


def _pair_entries(model: MdpModel):
    """(cols, values) of each feasible pair's CSR row, as an int list and a
    float list, in the pair order of `_feasible_pairs`."""
    csr = model.kernel_csr
    bounds, cols, values = csr.indptr.tolist(), csr.cols.tolist(), csr.values.tolist()
    for p in np.flatnonzero(model.feasible_mask()).tolist():
        lo, hi = bounds[p], bounds[p + 1]
        yield cols[lo:hi], values[lo:hi]


def model_to_dict(model: MdpModel) -> dict:
    rows, cols = _feasible_pairs(model)
    keys = [_pair_key(i, a) for i, a in zip(rows, cols)]
    kernel = {}
    for key, (entry_cols, entry_values) in zip(keys, _pair_entries(model)):
        row = kernel[key] = [0.0] * model.num_states
        for j, v in zip(entry_cols, entry_values):
            row[j] = v
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "beta": model.beta,
        "feasible": [list(acts) for acts in model.feasible],
        "kernel": kernel,
        "reward": dict(zip(keys, model.reward[rows, cols].tolist())),
    }


_KERNEL_CHUNK_ROWS = 32


def _kernel_rows(S: int, A: int, states: list, actions: list, keys: list, rows: list) -> _KernelCSR:
    """The _KernelCSR of the kernel rows read from a model file, rows[n] the
    row of the pair (states[n], actions[n]); a pair listed twice keeps its
    first row. The rows are converted _KERNEL_CHUNK_ROWS at a time and their
    entries appended to arrays grown in place, so neither a float block of
    every row nor an (S, A, S) array is held. When the rows are not all S
    numbers, raises the ValidationError of the first row that is not."""
    n = len(rows)
    counts = np.zeros(n, dtype=np.int64)
    cols, values = np.zeros(0, dtype=_col_dtype(S)), np.zeros(0)
    filled = 0
    for lo in range(0, n, _KERNEL_CHUNK_ROWS):
        chunk = slice(lo, lo + _KERNEL_CHUNK_ROWS)
        part = rows[chunk]
        try:
            block = np.array(part)
        except ValueError:
            block = None
        if block is None or block.dtype.kind not in "biuf" or block.shape != (len(part), S):
            for key, row in zip(keys[chunk], part):
                row = _entries(row, "biuf", f"kernel row {key} is not a list of numbers")
                if row.shape != (S,):
                    raise ValidationError(f"kernel row {key} has length {row.size}, expected {S}")
        block_ptr, block_cols, block_values = _dense_rows(block)
        counts[chunk] = np.diff(block_ptr)
        end = filled + block_values.size
        if end > values.size:
            # realloc to the total the rows so far project: no copy is held
            # beside the entries, and rows of even density grow them once
            size = max(end, end * n // (lo + len(part)))
            values.resize(size, refcheck=False)
            cols.resize(size, refcheck=False)
        values[filled:end] = block_values
        cols[filled:end] = block_cols
        filled = end
        del block, block_cols, block_values  # before the next chunk is converted
    values.resize(filled, refcheck=False)
    cols.resize(filled, refcheck=False)
    pairs = np.array(states, dtype=np.int64) * A + np.array(actions, dtype=np.int64)
    unique, first = np.unique(pairs, return_index=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if unique.size < n or np.any(first != np.arange(n)):
        indptr, cols, values = _gather_rows(indptr, first, cols, values)
    per_pair = np.zeros(S * A, dtype=np.int64)
    per_pair[unique] = np.diff(indptr)
    return _kernel_csr(S, A, per_pair, cols, values)


def _reward_values(reward_map: dict, keys: list) -> list:
    """The rewards of the pairs `keys` as floats; ValidationError naming the
    first pair whose reward is not a number. Text is not a number, even
    text float() reads, and neither is an integer beyond the float range."""
    values = []
    for key in keys:
        value = reward_map[key]
        try:
            if isinstance(value, (str, bytes, bytearray)):
                raise TypeError
            values.append(float(value))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"reward {key} is not a number") from None
    return values


def model_from_dict(data: dict) -> MdpModel:
    """Build a model from the dict `model_to_dict` gives (or a parsed model
    file). The checks run in stages, each over the feasible pairs in state
    order: the sizes are integers of at least 1, kernel and reward are
    objects, feasible is a list of S integer lists whose actions lie in
    [0, A), both entries of every pair are present, every kernel row is S
    numbers, every reward is a number; then `MdpModel` validates the
    result. A float or a string is not an integer, so no index is
    truncated, and text is not a number, even "0.5". Every failure is a
    ValidationError."""
    try:
        S = operator.index(data["num_states"])
        A = operator.index(data["num_actions"])
        beta = float(data["beta"])
        feasible = data["feasible"]
        kernel_map = data["kernel"]
        reward_map = data["reward"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"model file is missing or mistypes field: {exc}") from exc
    if S < 1 or A < 1:
        raise ValidationError(f"need at least one state and action, got S={S}, A={A}")
    if not (isinstance(kernel_map, dict) and isinstance(reward_map, dict)):
        raise ValidationError("model file kernel and reward must be JSON objects")
    states, actions, keys, rows = [], [], [], []
    try:
        if len(feasible) != S:
            raise ValidationError(f"feasible has {len(feasible)} entries, expected {S}")
        for i, acts in enumerate(feasible):
            for a in acts:
                a = operator.index(a)
                key = _pair_key(i, a)
                if not 0 <= a < A:
                    raise ValidationError(f"feasible pair {key} has an action outside [0, {A})")
                if key not in kernel_map:
                    raise ValidationError(f"kernel entry {key} missing for feasible pair")
                if key not in reward_map:
                    raise ValidationError(f"reward entry {key} missing for feasible pair")
                states.append(i)
                actions.append(a)
                keys.append(key)
                rows.append(kernel_map[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"model file feasible is not a list of integer lists: {exc}"
        ) from exc
    kernel = _kernel_rows(S, A, states, actions, keys, rows)
    reward = np.zeros((S, A))
    reward[states, actions] = _reward_values(reward_map, keys)
    return MdpModel(S, A, feasible, None, reward, beta, kernel_csr=kernel)


# every kernel entry of the model file is on a line of its own
_ENTRY_SEP = ",\n      "
_ZERO_ENTRY = "0.0" + _ENTRY_SEP
# the kernel rows are written, and read back, in pieces of about this size
_PIECE_BYTES = 1 << 20


def _float_texts(values: np.ndarray):
    """(texts, index): `float.__repr__` of each distinct float of values,
    and the position of each value's text. Floats are distinct by their
    bits, so that -0.0 keeps its sign; a wind model holds a few dozen."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return list(map(float.__repr__, bits.view(float).tolist())), index


def _kernel_pieces(model: MdpModel, keys: list):
    """The model file's kernel rows, `    <key>: [` to `    ]` each, joined
    by ",\n", in pieces of whole rows of about _PIECE_BYTES; keys[n] is the
    quoted key of the n-th feasible pair (`_feasible_pairs`).

    A row holds S entries, 0.0 where the CSR stores none; a stored entry,
    -0.0 included, is its `_float_texts` text. A piece is one join of
    tokens placed by index: per row its key, per stored entry the zeros
    before it in its row and its text, then the zeros after the row's last
    and the closing bracket. A run of zeros is one string repetition per
    distinct length in the piece, so no S-long list is built per row."""
    csr, S = model.kernel_csr, model.num_states
    pairs = np.flatnonzero(model.feasible_mask())
    # every row of a valid model stores an entry, since it sums to 1
    starts, stops = csr.indptr[pairs], csr.indptr[pairs + 1]
    cols = csr.cols.astype(np.int64)
    gaps = cols.copy()
    gaps[1:] -= cols[:-1] + 1
    gaps[starts] = cols[starts]
    tails = S - 1 - cols[stops - 1]
    texts, text_of = _float_texts(csr.values)
    # an entry is followed by its separator, except a row's last entry
    # when no zero follows it
    text_of[stops[tails == 0] - 1] += len(texts)
    texts = np.array([text + _ENTRY_SEP for text in texts] + texts, dtype=object)
    # rows are joined by ",\n": every key but the first comes after it
    heads = np.array([f",\n    {key}: [\n      " for key in keys], dtype=object)
    heads[0] = heads[0][len(",\n") :]
    row_of = np.repeat(np.arange(pairs.size), stops - starts)
    rows = max(1, _PIECE_BYTES // (len(_ZERO_ENTRY) * S))
    for r0 in range(0, pairs.size, rows):
        r = np.arange(r0, min(r0 + rows, pairs.size))
        e = np.arange(starts[r0], stops[r[-1]])
        # row r's tokens start at 2 (r + starts[r]): its key, two per entry, its end
        base = 2 * (r0 + starts[r0])
        at = 2 * (row_of[e] + e) + 1 - base
        tokens = np.empty(2 * (r.size + e.size), dtype=object)
        tokens[2 * (r + starts[r]) - base] = heads[r]
        tokens[at] = _by_count(gaps[e], S, _ZERO_ENTRY.__mul__)
        tokens[at + 1] = texts[text_of[e]]
        tokens[2 * (r + stops[r]) + 1 - base] = _by_count(tails[r], S, _row_end)
        yield "".join(tokens.tolist())


def _row_end(zeros: int) -> str:
    """The end of a kernel row whose last `zeros` entries are 0.0."""
    return (_ZERO_ENTRY * (zeros - 1) + "0.0" if zeros else "") + "\n    ]"


def _by_count(counts: np.ndarray, S: int, text) -> np.ndarray:
    """text(count) for each of counts, ints in [0, S], as an object array;
    text is called once per distinct count."""
    table = np.empty(S + 1, dtype=object)
    distinct = np.flatnonzero(np.bincount(counts, minlength=S + 1))
    table[distinct] = np.array(list(map(text, distinct.tolist())), dtype=object)
    return table[counts]


def _model_chunks(model: MdpModel):
    """`json.dumps(model_to_dict(model), indent=2)` and a newline, built
    directly and yielded in pieces (`_kernel_pieces`), so the whole text is
    never held at once. Every float of a valid model is finite, so
    `float.__repr__` is what json writes for it."""
    rows, cols = _feasible_pairs(model)
    keys = list(map('"{},{}"'.format, rows, cols))
    feasible = ",\n".join(
        "    [\n      " + ",\n      ".join(map(str, acts)) + "\n    ]" for acts in model.feasible
    )
    yield (
        "{\n"
        f'  "num_states": {model.num_states},\n'
        f'  "num_actions": {model.num_actions},\n'
        f'  "beta": {float.__repr__(model.beta)},\n'
        f'  "feasible": [\n{feasible}\n  ],\n'
        '  "kernel": {\n'
    )
    yield from _kernel_pieces(model, keys)
    texts, text_of = _float_texts(model.reward[rows, cols])
    reward = ",\n".join(f"    {key}: {texts[k]}" for key, k in zip(keys, text_of.tolist()))
    yield f'\n  }},\n  "reward": {{\n{reward}\n  }}\n}}\n'


def save_model(model: MdpModel, path: str) -> None:
    """Write the model file: the bytes of `json.dump(model_to_dict(model),
    fh, indent=2)` and a newline, emitted without `json`."""
    _write_text(path, _model_chunks(model), "model")


def _write_text(path: str, pieces, what: str) -> None:
    """Write the strings `pieces` to the `what` file at path, with the same
    line ends on every platform; ModelIOError when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ModelIOError(f"cannot write {what} file {path}: {exc}") from exc


def _json_text(data) -> str:
    """The text of a policy file or a JSON report: indented JSON and a
    newline."""
    return json.dumps(data, indent=2) + "\n"


def _read_json(path: str, what: str):
    """The parsed content of the JSON `what` file at path; ModelIOError when
    it cannot be read, is not UTF-8 text or is not valid JSON."""
    return _parse_json(_read_bytes(path, what), path, what)


def _read_bytes(path: str, what: str) -> bytes:
    """The bytes of the `what` file at path; ModelIOError when it cannot be
    read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ModelIOError(f"cannot read {what} file {path}: {exc}") from exc


def _parse_json(data: bytes, path: str, what: str):
    """The parsed content of `data`, the bytes of the JSON `what` file at
    path, decoded as `open(path, encoding="utf-8")` reads them (universal
    newlines); ModelIOError when they are not UTF-8 text or not valid
    JSON."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelIOError(f"{what} file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelIOError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def load_model(path: str) -> MdpModel:
    """Read a model file, once. A file whose bytes are what `save_model`
    writes for the model they describe is read by `_read_saved`, which runs
    `float` only on the kernel entries that are not 0.0; any other file's
    bytes go through `json` and `model_from_dict`, which alone raise, so
    every error is the same for both. An accepted file parses by `json` to
    `model_to_dict` of its model, so both routes give the same model."""
    data = _read_bytes(path, "model")
    model = _read_saved(data)
    return model if model is not None else model_from_dict(_parse_json(data, path, "model"))


# the lines around the kernel rows of a saved model file
_KERNEL_OPEN = b'\n  "kernel": {\n'
_REWARD_OPEN = b'\n  },\n  "reward": {\n'
# the last 8 bytes of a saved 0.0 entry's line: within its row, and last
_ZERO_WORDS = tuple(int.from_bytes(text, "little") for text in (b"    0.0,", b"     0.0"))


def _read_saved(data: bytes):
    """The model of the file bytes `data` if they are exactly what
    `save_model` writes for that model (`_saved_model`), else None. The
    model is written back piece by piece (`_model_chunks`), and each piece
    compared with the bytes at its place. Besides the state count, which
    `_saved_model` checks before it sizes an array by S, the write-back is
    the only layout check: a missing, extra, unsorted or repeated entry
    raises on the way or writes back other bytes."""
    try:
        model = _saved_model(data)
        pos = 0
        for piece in _model_chunks(model):
            piece = piece.encode()
            if not data.startswith(piece, pos):
                return None
            pos += len(piece)
        return model if pos == len(data) else None
    # whatever fails here, load_model's json route parses the bytes and
    # decides; it alone raises
    except Exception:
        return None


def _saved_model(data: bytes) -> MdpModel:
    """The model that `data` describes when laid out as `save_model`
    writes, built and validated by `MdpModel`; otherwise it raises or gives
    some model, which `_read_saved` tells by writing it back. The header
    and the reward object are parsed by `json` and the kernel rows by
    `_saved_kernel`. The rows and rewards are taken in the pair order
    `feasible` lists, which is the file's order when the file is saved."""
    kernel_at = data.index(_KERNEL_OPEN)
    reward_at = data.rindex(_REWARD_OPEN)
    # the header ends with "],": drop the comma and close the object
    head = json.loads(data[: kernel_at - 1] + b"\n}")
    S, A = operator.index(head["num_states"]), operator.index(head["num_actions"])
    feasible = head["feasible"]
    # before any array is sized by S: a mistyped S must not allocate
    if len(feasible) != S:
        raise ValueError("feasible does not list every state")
    actions = list(map(operator.index, itertools.chain.from_iterable(feasible)))
    actions = np.array(actions, dtype=np.int64)
    states = np.repeat(np.arange(S), list(map(len, feasible)))
    pairs = states * A + actions
    reward_map = json.loads(b"{" + data[reward_at + len(b"\n  },") :])["reward"]
    reward = np.zeros((S, A))
    reward[states, actions] = list(map(float, reward_map.values()))
    kernel = _saved_kernel(data, kernel_at + len(_KERNEL_OPEN), reward_at + 1, S, A, pairs)
    return MdpModel(S, A, feasible, None, reward, float(head["beta"]), kernel_csr=kernel)


def _saved_kernel(data: bytes, lo: int, hi: int, S: int, A: int, pairs: np.ndarray) -> _KernelCSR:
    """The _KernelCSR of the kernel rows data[lo:hi] of a saved model file,
    the n-th row that of pairs[n]. Saved, row n is the S + 2 lines from
    line n (S + 2): its key, its S entries and its closing bracket, and an
    entry of 0.0 is the line `      0.0,`, or `      0.0` last in its row.
    The lines are read in pieces of about _PIECE_BYTES. A line is told
    from such a 0.0 by its last 8 bytes, and `float` reads each distinct
    text of the other entries once."""
    rows, cols, values = [], [], []
    whole = np.frombuffer(data, np.uint8)
    # words[k] is the 8 bytes from byte k on, as one little-endian word
    words = np.ndarray(len(data) - 7, "<u8", data, 0, (1,))
    line = 0
    while lo < hi:
        end = data.index(b"\n", min(lo + _PIECE_BYTES, hi) - 1) + 1
        ends = lo + np.flatnonzero(whole[lo:end] == ord("\n"))
        last_words = words[ends - 8]
        kept = np.flatnonzero((last_words != _ZERO_WORDS[0]) & (last_words != _ZERO_WORDS[1]))
        row, place = np.divmod(kept + line, S + 2)
        entry = (place >= 1) & (place <= S)
        kept = kept[entry]
        rows.append(row[entry])
        cols.append(place[entry] - 1)
        # an entry's text is its line, without the comma after it
        first = np.where(kept > 0, ends[kept - 1] + 1, lo)
        last = ends[kept] - (whole[ends[kept] - 1] == ord(","))
        values.append(_parse_floats(data, first, last))
        line += ends.size
        lo = end
    rows, cols, values = map(np.concatenate, (rows, cols, values))
    return _csr_of_entries(S, A, pairs[rows], cols, values)


def _parse_floats(data: bytes, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """`float` of each of the byte strings data[first[k]:last[k]], parsed
    once per distinct string. Each string is cut from the bytes into a
    32-byte row padded with spaces, and the rows are told apart by a 64-bit
    key mixed from their four words. Two strings that share a key get one
    value; `_read_saved` then finds a model that does not write back to the
    file and leaves it to the json route."""
    width = last - first
    if width.max(initial=0) > 32:
        raise ValueError("longer than the text of any float")
    # row k of `windows` is the 32 bytes from byte k on
    windows = np.ndarray((len(data) - 31, 32), np.uint8, data, 0, (1, 1))
    block = windows[np.minimum(first, len(data) - 32)]
    block[np.arange(32) >= width[:, None]] = ord(" ")
    words = block.view("<u8")
    key = words[:, 0].copy()
    for k in range(1, 4):
        key *= np.uint64(0x9E3779B97F4A7C15)
        key ^= words[:, k]
    _, at, index = np.unique(key, return_index=True, return_inverse=True)
    return np.array(list(map(float, block[at].view("S32").ravel().tolist())))[index]


def save_policy(policy, path: str) -> None:
    if isinstance(policy, DeterministicPolicy):
        data = {"action": policy.action.tolist()}
    elif isinstance(policy, RandomizedPolicy):
        data = {"theta": policy.theta.tolist()}
    else:
        raise ValidationError(f"cannot serialize policy of type {type(policy).__name__}")
    _write_text(path, [_json_text(data)], "policy")


def _entries(value, kinds: str, message: str) -> np.ndarray:
    """value as an array whose numpy dtype kind is one of `kinds` (or that is
    empty); ValidationError(message) otherwise, also for a ragged list."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValidationError(message) from None
    if arr.size and arr.dtype.kind not in kinds:
        raise ValidationError(message)
    return arr


def _reals(value, name: str) -> np.ndarray:
    """value as a float array; ValidationError "<name> must hold real
    numbers" unless it holds booleans, integers or floats (`_entries`)."""
    return np.asarray(_entries(value, "biuf", f"{name} must hold real numbers"), dtype=float)


def load_policy(path: str):
    """Read a policy file: {"action": [...]} or {"theta": [[...], ...]}."""
    data = _read_json(path, "policy")
    if not isinstance(data, dict):
        raise ValidationError(f"policy file {path} does not hold a JSON object")
    if "action" in data:
        message = f"policy file {path} has an action that is not an integer"
        return DeterministicPolicy(_entries(data["action"], "i", message))
    if "theta" in data:
        message = f"policy file {path} has a theta entry that is not a number"
        return RandomizedPolicy(_entries(data["theta"], "if", message))
    raise ValidationError(f"policy file {path} has neither 'action' nor 'theta'")
