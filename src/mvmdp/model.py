"""Finite MDP model, policy representations, induced chains, and model I/O.

States and actions are 0-based indices. The transition kernel is stored as a
dense (S, A, S) array whose rows are only meaningful for feasible (state,
action) pairs; infeasible rows are zero and never read.
"""
from __future__ import annotations

import itertools
import json
import math
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
        object.__setattr__(
            self,
            "feasible",
            tuple(tuple(sorted(int(a) for a in acts)) for acts in self.feasible),
        )
        object.__setattr__(self, "kernel", np.asarray(self.kernel, dtype=float))
        object.__setattr__(self, "reward", np.asarray(self.reward, dtype=float))
        object.__setattr__(self, "beta", float(self.beta))
        _validate_model(self)
        self.kernel.setflags(write=False)
        self.reward.setflags(write=False)
        mask = np.zeros((self.num_states, self.num_actions), dtype=bool)
        for i, acts in enumerate(self.feasible):
            mask[i, list(acts)] = True
        mask.setflags(write=False)
        object.__setattr__(self, "_feasible_mask", mask)

    def feasible_mask(self) -> np.ndarray:
        """Read-only boolean (S, A) mask of feasible pairs, built once."""
        return self._feasible_mask

    def num_policies(self) -> int:
        return math.prod(self.feasible_mask().sum(axis=1).tolist())


def _validate_model(model: MdpModel) -> None:
    S, A = model.num_states, model.num_actions
    if S < 1 or A < 1:
        raise ValidationError(f"need at least one state and action, got S={S}, A={A}")
    if not model.beta > 0:
        raise ValidationError(f"beta must be > 0, got {model.beta}")
    if len(model.feasible) != S:
        raise ValidationError(f"feasible has {len(model.feasible)} entries, expected {S}")
    if model.kernel.shape != (S, A, S):
        raise ValidationError(f"kernel shape {model.kernel.shape} != {(S, A, S)}")
    if model.reward.shape != (S, A):
        raise ValidationError(f"reward shape {model.reward.shape} != {(S, A)}")
    for i, acts in enumerate(model.feasible):
        if not acts:
            raise ValidationError(f"state {i} has no feasible action")
        if acts[0] < 0 or acts[-1] >= A:
            raise ValidationError(f"state {i} lists action outside [0, {A}): {acts}")
        if len(set(acts)) != len(acts):
            raise ValidationError(f"state {i} lists duplicate actions: {acts}")
        for a in acts:
            row = model.kernel[i, a]
            if np.any(row < 0):
                raise ValidationError(f"kernel row {i},{a} has a negative entry")
            s = row.sum()
            if abs(s - 1.0) > ROW_SUM_TOL:
                raise ValidationError(f"kernel row {i},{a} sums to {float(s)!r}, expected 1")
            if not np.isfinite(model.reward[i, a]):
                raise ValidationError(f"reward {i},{a} is not finite")


@dataclass(frozen=True)
class DeterministicPolicy:
    """State-to-action mapping d(i)."""

    action: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "action", np.asarray(self.action, dtype=int))
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
        if np.any(self.theta < 0):
            raise ValidationError("theta has a negative entry")
        sums = self.theta.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"theta row {i} sums to {float(sums[i])!r}, expected 1")
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


def _strong_components(P: np.ndarray):
    """Strongly connected components of the support graph of P, whose edges
    are the entries > 0. Returns (n, labels, rows, cols), the edges in
    row-major order."""
    S = P.shape[0]
    # the flat scan is several times faster than a 2-D np.nonzero at S ~ 1000
    rows, cols = np.divmod(np.flatnonzero(P > 0), S)
    # csgraph takes only int32 indices
    indptr = np.searchsorted(rows, np.arange(S + 1)).astype(np.int32)
    graph = csr_array((np.ones(rows.size), cols.astype(np.int32), indptr), shape=(S, S))
    n, labels = connected_components(graph, connection="strong")
    return n, labels, rows, cols


def closed_class_count(P: np.ndarray) -> int:
    """Number of closed communicating classes of the support graph of P.

    Entries <= 0 are not edges; a class is closed when no edge leaves it.
    1 means the stationary distribution is unique (irreducible or unichain);
    2 or more means it is not.
    """
    n, labels, rows, cols = _strong_components(P)
    src = labels[rows]
    closed = np.ones(n, dtype=bool)
    closed[src[src != labels[cols]]] = False
    return int(np.count_nonzero(closed))


def is_irreducible(P: np.ndarray) -> bool:
    """True when the support graph of P is a single strongly connected class."""
    return _strong_components(P)[0] == 1


def _draw_feasible(model: MdpModel, rng: np.random.Generator, states: np.ndarray) -> np.ndarray:
    """One uniform draw over the feasible actions of each of `states`, in
    order. Consumes `rng` exactly as one `rng.choice(model.feasible[i])` per
    state would: vector `integers` with per-state highs draws state by state."""
    mask = model.feasible_mask()[states]
    table = np.argsort(~mask, axis=1, kind="stable")
    return table[np.arange(len(states)), rng.integers(0, mask.sum(axis=1))]


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
    Always returns a report; callers decide whether violations are fatal.
    """
    union = model.kernel.sum(axis=1, where=model.feasible_mask()[:, :, None])
    union_ok = is_irreducible(union)

    violations = []
    if model.num_policies() <= enumeration_cap:
        mode = "enumeration"
        checked = 0
        for combo in itertools.product(*model.feasible):
            d = DeterministicPolicy(np.array(combo))
            P, _ = induced_chain(model, d)
            if not is_irreducible(P):
                violations.append(d)
            checked += 1
    else:
        mode = "sampling"
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(sample_size):
            d = sample_random_policy(model, rng, require_irreducible=False)
            P, _ = induced_chain(model, d)
            if not is_irreducible(P):
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
    `require_irreducible` the draw is repeated until the induced chain is
    structurally irreducible, which is what solvers need for a start.
    """
    states = np.arange(model.num_states)
    for _ in range(max_tries):
        d = DeterministicPolicy(_draw_feasible(model, rng, states))
        if not require_irreducible:
            return d
        P, _ = induced_chain(model, d)
        if is_irreducible(P):
            return d
    raise ValidationError(
        f"no irreducible policy found in {max_tries} uniform draws; "
        "the model may violate the ergodicity assumption everywhere"
    )


def _pair_key(i: int, a: int) -> str:
    return f"{i},{a}"


def model_to_dict(model: MdpModel) -> dict:
    kernel = {}
    reward = {}
    for i, acts in enumerate(model.feasible):
        for a in acts:
            kernel[_pair_key(i, a)] = [float(x) for x in model.kernel[i, a]]
            reward[_pair_key(i, a)] = float(model.reward[i, a])
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "beta": model.beta,
        "feasible": [list(acts) for acts in model.feasible],
        "kernel": kernel,
        "reward": reward,
    }


def model_from_dict(data: dict) -> MdpModel:
    try:
        S = int(data["num_states"])
        A = int(data["num_actions"])
        beta = float(data["beta"])
        feasible = data["feasible"]
        kernel_map = data["kernel"]
        reward_map = data["reward"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"model file is missing or mistypes field: {exc}") from exc
    kernel = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    for i, acts in enumerate(feasible):
        for a in acts:
            key = _pair_key(int(i), int(a))
            if key not in kernel_map:
                raise ValidationError(f"kernel entry {key} missing for feasible pair")
            if key not in reward_map:
                raise ValidationError(f"reward entry {key} missing for feasible pair")
            row = np.asarray(kernel_map[key], dtype=float)
            if row.shape != (S,):
                raise ValidationError(f"kernel row {key} has length {row.size}, expected {S}")
            kernel[int(i), int(a)] = row
            reward[int(i), int(a)] = float(reward_map[key])
    return MdpModel(S, A, tuple(tuple(acts) for acts in feasible), kernel, reward, beta)


def save_model(model: MdpModel, path: str) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(model_to_dict(model), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ModelIOError(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str) -> MdpModel:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelIOError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelIOError(
            f"model file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return model_from_dict(data)


def save_policy(policy, path: str) -> None:
    if isinstance(policy, DeterministicPolicy):
        data = {"action": [int(a) for a in policy.action]}
    elif isinstance(policy, RandomizedPolicy):
        data = {"theta": [[float(x) for x in row] for row in policy.theta]}
    else:
        raise ValidationError(f"cannot serialize policy of type {type(policy).__name__}")
    try:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ModelIOError(f"cannot write policy file {path}: {exc}") from exc


def load_policy(path: str):
    """Read a policy file: {"action": [...]} or {"theta": [[...], ...]}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelIOError(f"cannot read policy file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelIOError(
            f"policy file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if "action" in data:
        return DeterministicPolicy(np.asarray(data["action"], dtype=int))
    if "theta" in data:
        return RandomizedPolicy(np.asarray(data["theta"], dtype=float))
    raise ValidationError(f"policy file {path} has neither 'action' nor 'theta'")
