"""Finite MDP model, policy representations, induced chains, and model I/O.

States and actions are 0-based indices. The transition kernel is stored as a
dense (S, A, S) array whose rows are only meaningful for feasible (state,
action) pairs; infeasible rows are zero and never read. Beside it a model
caches which next states each feasible pair can reach (its successor table,
built from the kernel's entries > 0 on first use), so the structural check
of a policy's chain gathers rows of that table instead of the dense chain.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import FeasibilityError, ModelIOError, ValidationError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP with state-dependent feasible action sets.

    Fields:
        num_states: S >= 1.
        num_actions: A >= 1 (global action indexing; per-state subsets in
            `feasible`).
        feasible: tuple of per-state sorted tuples of allowed action indices.
        kernel: (S, A, S) array, kernel[i, a] is the next-state distribution
            for feasible (i, a).
        reward: (S, A) array, reward[i, a] for feasible (i, a).
        beta: risk-tradeoff weight, > 0.
    """

    num_states: int
    num_actions: int
    feasible: tuple
    kernel: np.ndarray
    reward: np.ndarray
    beta: float

    def __post_init__(self):
        try:
            feasible = tuple(tuple(sorted(map(operator.index, acts))) for acts in self.feasible)
        except TypeError as exc:
            raise ValidationError(f"feasible must hold lists of integer actions: {exc}") from None
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "kernel", np.asarray(self.kernel, dtype=float))
        object.__setattr__(self, "reward", np.asarray(self.reward, dtype=float))
        object.__setattr__(self, "beta", float(self.beta))
        mask = _validate_model(self)
        self.kernel.setflags(write=False)
        self.reward.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "_feasible_mask", mask)
        A = self.num_actions
        actions = np.sort(np.where(mask, np.arange(A), A), axis=1)
        counts = mask.sum(axis=1)
        actions.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "_feasible_actions", (actions, counts))
        object.__setattr__(self, "_successors", None)

    def feasible_mask(self) -> np.ndarray:
        """Read-only boolean (S, A) mask of feasible pairs, built once."""
        return self._feasible_mask

    def feasible_actions(self):
        """(actions, counts), read-only and built once: row i of the (S, A)
        `actions` holds the counts[i] feasible actions of state i in
        increasing order, then A in the columns left over."""
        return self._feasible_actions

    def successor_table(self):
        """(indptr, succ), read-only and built on first use: the next states
        j with kernel[i, a, j] > 0 of the pair p = i * A + a are
        succ[indptr[p]:indptr[p + 1]], in increasing order. Infeasible pairs
        have none."""
        if self._successors is None:
            S, A = self.num_states, self.num_actions
            positive = self.kernel > 0
            positive &= self._feasible_mask[:, :, None]
            indptr, succ = _csr(np.flatnonzero(positive), S * A, S)
            indptr.setflags(write=False)
            succ.setflags(write=False)
            object.__setattr__(self, "_successors", (indptr, succ))
        return self._successors

    def num_policies(self) -> int:
        return math.prod(self._feasible_actions[1].tolist())


def _state_error(i: int, acts: tuple, A: int):
    """Why the sorted action list of state i is invalid, or None."""
    if not acts:
        return f"state {i} has no feasible action"
    if acts[0] < 0 or acts[-1] >= A:
        return f"state {i} lists action outside [0, {A}): {acts}"
    if len(set(acts)) != len(acts):
        return f"state {i} lists duplicate actions: {acts}"
    return None


def _check_beta(beta: float) -> None:
    if not beta > 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")


def _check_rows(rows: np.ndarray, name: str, where=True) -> None:
    """The one rule for probability rows: raise ValidationError for the first
    row along the last axis of `rows` (in index order, among those `where`
    selects) with a negative entry or a sum not within ROW_SUM_TOL of 1, a
    NaN sum included. The message is "<name> has a negative entry" or
    "<name> sums to <sum>, expected 1", `name` formatted with the row's index.
    Whole-array reductions: nothing of the size of `rows` is allocated."""
    sums = rows.sum(axis=-1)
    # `not <=` also rejects NaN sums, which NaN or inf entries give
    bad = (rows.min(axis=-1, initial=0.0) < 0) | ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
    bad &= where
    first = np.flatnonzero(bad)
    if first.size:
        index = np.unravel_index(first[0], bad.shape)
        name = name.format(*map(int, index))
        # a NaN row minimum hides a negative entry; the row itself does not
        if np.any(rows[index] < 0):
            raise ValidationError(f"{name} has a negative entry")
        raise ValidationError(f"{name} sums to {float(sums[index])!r}, expected 1")


def _validate_model(model: MdpModel) -> np.ndarray:
    """Check the model and return its (S, A) feasible mask.

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
    if model.kernel.shape != (S, A, S):
        raise ValidationError(f"kernel shape {model.kernel.shape} != {(S, A, S)}")
    if model.reward.shape != (S, A):
        raise ValidationError(f"reward shape {model.reward.shape} != {(S, A)}")
    state_errors = [_state_error(i, acts, A) for i, acts in enumerate(model.feasible)]
    first_bad_state = next((i for i, err in enumerate(state_errors) if err), S)
    # the pairs of the states before the first bad one, all of them valid
    good = model.feasible[:first_bad_state]
    mask = np.zeros((S, A), dtype=bool)
    mask[
        np.repeat(np.arange(first_bad_state), [len(acts) for acts in good]),
        list(itertools.chain.from_iterable(good)),
    ] = True
    # each pair's kernel row comes before its reward, and both before later pairs
    bad_reward = np.flatnonzero(mask & ~np.isfinite(model.reward))
    rows_first = mask.copy()
    if bad_reward.size:
        rows_first.flat[bad_reward[0] + 1 :] = False
    _check_rows(model.kernel, "kernel row {},{}", rows_first)
    if bad_reward.size:
        i, a = divmod(int(bad_reward[0]), A)
        raise ValidationError(f"reward {i},{a} is not finite")
    if first_bad_state < S:
        raise ValidationError(state_errors[first_bad_state])
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

    def validate_for(self, model: MdpModel) -> None:
        if self.action.shape != (model.num_states,):
            raise ValidationError(
                f"policy has {self.action.shape[0]} states, model has {model.num_states}"
            )
        a = self.action
        in_range = (a >= 0) & (a < model.num_actions)
        rows = np.arange(model.num_states)
        ok = in_range & model.feasible_mask()[rows, np.where(in_range, a, 0)]
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = int(bad[0])
            raise FeasibilityError(f"action {int(a[i])} is infeasible at state {i}")

    def as_randomized(self, model: MdpModel) -> "RandomizedPolicy":
        theta = np.zeros((model.num_states, model.num_actions))
        theta[np.arange(model.num_states), self.action] = 1.0
        return RandomizedPolicy(theta)

    def __eq__(self, other) -> bool:
        return isinstance(other, DeterministicPolicy) and np.array_equal(
            self.action, other.action
        )

    def __hash__(self) -> int:
        return hash(self.action.tobytes())


@dataclass(frozen=True)
class RandomizedPolicy:
    """Per-state probability rows theta[i, a] over actions."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
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
        object.__setattr__(self, "delta", float(self.delta))
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta must be in [0, 1], got {self.delta}")

    def as_randomized(self, model: MdpModel) -> RandomizedPolicy:
        tb = self.base.as_randomized(model).theta
        ta = self.alt.as_randomized(model).theta
        return RandomizedPolicy((1.0 - self.delta) * tb + self.delta * ta)


def induced_chain(model: MdpModel, policy: DeterministicPolicy):
    """Transition matrix P[i, j] = kernel[i, d(i), j] and reward vector
    r[i] = reward[i, d(i)] of the chain the policy induces."""
    policy.validate_for(model)
    idx = np.arange(model.num_states)
    return model.kernel[idx, policy.action], model.reward[idx, policy.action]


def induced_chain_randomized(model: MdpModel, policy: RandomizedPolicy):
    """Mixture chain of a randomized policy.

    Returns (P, r_mean, r_second_moment). The second moment row
    sum_a theta[i,a] * reward[i,a]**2 is what the mean-variance cost of a
    randomized policy needs; the variance is a mixture of per-action
    quadratics, not the quadratic of the mixed reward.
    """
    policy.validate_for(model)
    theta = policy.theta
    P = np.einsum("ia,iaj->ij", theta, model.kernel)
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
    cols[indptr[r]:indptr[r + 1]], in increasing order. cols is int32, the
    index type csgraph takes."""
    r, cols = np.divmod(flat, width)
    return np.searchsorted(r, np.arange(rows + 1)), cols.astype(np.int32)


def _support(P: np.ndarray):
    """The support graph of P, whose edges are the entries > 0, as (indptr,
    cols)."""
    # the flat scan is several times faster than a 2-D np.nonzero at S ~ 1000
    return _csr(np.flatnonzero(P > 0), P.shape[0], P.shape[0])


def _policy_support(model: MdpModel, action: np.ndarray):
    """The support graph of the chain of the feasible action table `action`,
    as (indptr, cols): the successor table's rows of the pairs (i, action[i]),
    gathered in state order. It equals `_support` of the induced chain."""
    table_ptr, succ = model.successor_table()
    pairs = np.arange(model.num_states) * model.num_actions + action
    starts = table_ptr[pairs]
    counts = table_ptr[pairs + 1] - starts
    indptr = np.zeros(pairs.size + 1, dtype=table_ptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    offsets = np.repeat(starts - indptr[:-1], counts)
    return indptr, succ[offsets + np.arange(indptr[-1])]


def _strong_components(indptr: np.ndarray, cols: np.ndarray):
    """(n, labels): the strongly connected components of the graph (indptr,
    cols) on indptr.size - 1 nodes."""
    S = indptr.size - 1
    graph = csr_array((np.ones(cols.size), cols, indptr.astype(np.int32)), shape=(S, S))
    return connected_components(graph, connection="strong")


def _irreducible(indptr: np.ndarray, cols: np.ndarray) -> bool:
    """True when the graph (indptr, cols) is a single strong component."""
    return _strong_components(indptr, cols)[0] == 1


def _closed_classes(indptr: np.ndarray, cols: np.ndarray) -> int:
    """Number of strong components of the graph (indptr, cols) that no edge
    leaves."""
    n, labels = _strong_components(indptr, cols)
    if n == 1:
        return 1
    src = np.repeat(labels, np.diff(indptr))
    closed = np.ones(n, dtype=bool)
    closed[src[src != labels[cols]]] = False
    return int(np.count_nonzero(closed))


def closed_class_count(P: np.ndarray) -> int:
    """Number of closed communicating classes of the support graph of P.

    Entries <= 0 are not edges; a class is closed when no edge leaves it.
    1 means the stationary distribution is unique (irreducible or unichain);
    2 or more means it is not.
    """
    return _closed_classes(*_support(P))


def is_irreducible(P: np.ndarray) -> bool:
    """True when the support graph of P is a single strongly connected class."""
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
    for _ in range(max_tries):
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


def model_to_dict(model: MdpModel) -> dict:
    rows, cols = _feasible_pairs(model)
    keys = [_pair_key(i, a) for i, a in zip(rows, cols)]
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "beta": model.beta,
        "feasible": [list(acts) for acts in model.feasible],
        "kernel": {key: model.kernel[i, a].tolist() for key, i, a in zip(keys, rows, cols)},
        "reward": dict(zip(keys, model.reward[rows, cols].tolist())),
    }


_KERNEL_CHUNK_ROWS = 256


def _kernel_block(kernel: np.ndarray, states: list, actions: list, keys: list, rows: list) -> None:
    """Write the kernel rows read from a model file into kernel[states,
    actions], converting _KERNEL_CHUNK_ROWS rows at a time, so that no float
    block of every row is held beside the kernel. When the rows are not all
    S numbers, raises the ValidationError of the first row that is not."""
    S = kernel.shape[-1]
    for lo in range(0, len(rows), _KERNEL_CHUNK_ROWS):
        chunk = slice(lo, lo + _KERNEL_CHUNK_ROWS)
        part = rows[chunk]
        try:
            block = np.array(part, dtype=float)
        except (TypeError, ValueError):
            block = None
        if block is None or block.shape != (len(part), S):
            for key, row in zip(keys[chunk], part):
                try:
                    row = np.asarray(row, dtype=float)
                except (TypeError, ValueError):
                    raise ValidationError(f"kernel row {key} is not a list of numbers") from None
                if row.shape != (S,):
                    raise ValidationError(f"kernel row {key} has length {row.size}, expected {S}")
        kernel[states[chunk], actions[chunk]] = block
        del block  # before the next chunk is converted


def _reward_values(reward_map: dict, keys: list) -> list:
    """The rewards of the pairs `keys` as floats; ValidationError naming the
    first pair whose reward is not a number."""
    values = []
    for key in keys:
        try:
            values.append(float(reward_map[key]))
        except (TypeError, ValueError):
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
    truncated. Every failure is a ValidationError."""
    try:
        S = operator.index(data["num_states"])
        A = operator.index(data["num_actions"])
        beta = float(data["beta"])
        feasible = data["feasible"]
        kernel_map = data["kernel"]
        reward_map = data["reward"]
    except (KeyError, TypeError, ValueError) as exc:
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
    kernel = np.zeros((S, A, S))
    _kernel_block(kernel, states, actions, keys, rows)
    reward = np.zeros((S, A))
    reward[states, actions] = _reward_values(reward_map, keys)
    return MdpModel(S, A, tuple(tuple(acts) for acts in feasible), kernel, reward, beta)


def _row_text(row: np.ndarray) -> str:
    """The entries of one kernel row in the model file layout. Most are 0.0,
    so only the others go through `float.__repr__`; the sign bit keeps -0.0
    among them."""
    parts = ["0.0"] * row.size
    for j in np.flatnonzero((row != 0) | np.signbit(row)).tolist():
        parts[j] = float.__repr__(row[j])
    return ",\n      ".join(parts)


def _model_chunks(model: MdpModel):
    """`json.dumps(model_to_dict(model), indent=2)` and a newline, built
    directly and yielded in pieces, one per kernel row, so the whole text is
    never held at once. Every float of a valid model is finite, so
    `float.__repr__` is what json writes for it."""
    rows, cols = _feasible_pairs(model)
    keys = [f'"{_pair_key(i, a)}"' for i, a in zip(rows, cols)]
    num = float.__repr__
    feasible = ",\n".join(
        "    [\n" + ",\n".join(f"      {a}" for a in acts) + "\n    ]" for acts in model.feasible
    )
    yield (
        "{\n"
        f'  "num_states": {model.num_states},\n'
        f'  "num_actions": {model.num_actions},\n'
        f'  "beta": {num(model.beta)},\n'
        f'  "feasible": [\n{feasible}\n  ],\n'
        '  "kernel": {\n'
    )
    sep = ""
    for key, i, a in zip(keys, rows, cols):
        yield f"{sep}    {key}: [\n      {_row_text(model.kernel[i, a])}\n    ]"
        sep = ",\n"
    reward = ",\n".join(
        f"    {key}: {num(r)}" for key, r in zip(keys, model.reward[rows, cols].tolist())
    )
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
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelIOError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelIOError(f"{what} file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelIOError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def load_model(path: str) -> MdpModel:
    return model_from_dict(_read_json(path, "model"))


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
