"""Wind-farm-plus-battery dispatch benchmark.

A wind farm with output levels 0..5 MW (an exogenous Markov chain) shares a
grid connection with a battery of capacity B MWh. Each hour the dispatcher
picks a battery power A (positive discharges, negative charges); delivered
power is Y = X + A. In the abandonment variant the decision U = A - V may
also discard V >= 0 MW of wind when the battery cannot absorb it.

States are flattened as wind * (B + 1) + battery.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import MdpModel, _check_rows, _csr_of_entries, _integer, _reals

# hourly wind-level transition probabilities estimated for the benchmark site
WIND_KERNEL = np.array(
    [
        [0.53, 0.18, 0.19, 0.04, 0.01, 0.05],
        [0.51, 0.08, 0.20, 0.08, 0.02, 0.11],
        [0.35, 0.11, 0.19, 0.11, 0.03, 0.21],
        [0.27, 0.15, 0.15, 0.14, 0.03, 0.26],
        [0.14, 0.11, 0.13, 0.15, 0.05, 0.42],
        [0.09, 0.03, 0.06, 0.06, 0.03, 0.73],
    ]
)
WIND_KERNEL.setflags(write=False)


@dataclass(frozen=True)
class WindStorageSpec:
    """Benchmark data: wind levels (MW), battery capacity (MWh), battery
    power actions (MW), wind transition matrix, risk weight, scenario."""

    wind_states: tuple = (0, 1, 2, 3, 4, 5)
    battery_capacity: int = 5
    charge_actions: tuple = (-2, -1, 0, 1, 2)
    wind_kernel: np.ndarray = field(default_factory=lambda: WIND_KERNEL)
    beta: float = 0.1
    abandonment: bool = False

    def __post_init__(self):
        object.__setattr__(self, "wind_kernel", _reals(self.wind_kernel, "wind kernel"))
        _reals(self.wind_states, "wind states")
        W = len(self.wind_states)
        if self.wind_kernel.shape != (W, W):
            raise ValidationError(
                f"wind kernel shape {self.wind_kernel.shape} != {(W, W)}"
            )
        _check_rows(self.wind_kernel, "wind kernel row {}")
        _integer(self.battery_capacity, "battery capacity", 1)
        if 0 not in self.charge_actions:
            raise ValidationError("charge action set must contain 0")

    @property
    def num_states(self) -> int:
        return len(self.wind_states) * (self.battery_capacity + 1)


@dataclass(frozen=True)
class JointState:
    """Wind output level (MW) and battery level (MWh)."""

    wind: int
    battery: int

    @classmethod
    def from_flat(cls, index: int, battery_capacity: int = 5) -> "JointState":
        """The (wind, battery) pair of flat state index `index` on a model
        of capacity `battery_capacity`, the inverse of state_index. The
        default decodes as B=5; other capacities must be passed."""
        levels = _integer(battery_capacity, "battery capacity", 1) + 1
        return cls(*divmod(_integer(index, "index", 0), levels))


def state_index(spec: WindStorageSpec, wind, battery):
    """Flat index of (wind, battery); works elementwise on integer arrays."""
    return wind * (spec.battery_capacity + 1) + battery


def _decision_bounds(spec: WindStorageSpec, x_power, battery):
    """(lo, hi), elementwise: the decisions U allowed at wind power X and
    battery level b satisfy lo <= U <= hi. Both scenarios need
    -X <= U <= min(max charge, b); without abandonment U is a battery power,
    so it must also keep the battery within capacity (U >= b - B)."""
    lo = -x_power
    if not spec.abandonment:
        lo = np.maximum(lo, battery - spec.battery_capacity)
    return lo, np.minimum(max(spec.charge_actions), battery)


def _battery_power(spec: WindStorageSpec, battery, U):
    """Battery power A = max(U, max(min charge, b - B)) of a decision U at
    battery level b, elementwise: see `decompose_action`."""
    return np.maximum(U, np.maximum(min(spec.charge_actions), battery - spec.battery_capacity))


def build_no_abandonment(spec: WindStorageSpec) -> MdpModel:
    """Joint MDP where all wind power goes to the battery or the grid.

    Feasible battery powers A at (X, b) satisfy b - B <= A <= b (battery
    stays within capacity) and A >= -X (charging draws from current wind
    only, so delivered power Y = X + A stays nonnegative). Reward is Y.
    """
    if spec.abandonment:
        raise ValidationError("spec has the abandonment flag set")
    return build(spec)


def decompose_action(spec: WindStorageSpec, state: JointState, U: int):
    """Split a decision U into battery power A and abandoned power V.

    The battery absorbs as much of a charging request as its free capacity
    and the charge limit allow; the remainder is abandoned:
    A = U when U >= max(min charge, b - B), else A is that bound and
    V = A - U. Always U = A - V, 0 <= V <= X. U must be one of
    `action_values(spec)` and feasible at the state, as in `build`; the
    state must lie within the spec's wind levels and battery capacity.
    """
    w, b = _integer(state.wind, "wind"), _integer(state.battery, "battery")
    U = _integer(U, "decision")
    W, B = len(spec.wind_states), spec.battery_capacity
    if not (0 <= w < W and 0 <= b <= B):
        raise ValidationError(
            f"state (wind {w}, battery {b}) outside the spec: "
            f"wind 0..{W - 1}, battery 0..{B}"
        )
    if U not in action_values(spec):
        raise ValidationError(f"decision {U} is not one of the actions {action_values(spec)}")
    lo, hi = map(int, _decision_bounds(spec, spec.wind_states[w], b))
    if not lo <= U <= hi:
        raise ValidationError(
            f"decision {U} outside feasible range [{lo}, {hi}] at (wind {w}, battery {b})"
        )
    a = int(_battery_power(spec, b, U))
    return a, a - U


def build_abandonment(spec: WindStorageSpec) -> MdpModel:
    """Joint MDP where surplus wind may be abandoned.

    The decision variable is U in {-X, ..., min(max charge action, b)};
    reward is Y = X + U. Actions are indexed globally over the widest
    possible range; states expose the subset their wind level allows.
    """
    if not spec.abandonment:
        raise ValidationError("spec lacks the abandonment flag")
    return build(spec)


def build(spec: WindStorageSpec) -> MdpModel:
    """Joint MDP of either scenario, built over (wind, battery, action) arrays.

    The decisions U of a state lie within `_decision_bounds`, and U moves
    the battery to b - A with A = `_battery_power` (A = U without
    abandonment).
    """
    B = spec.battery_capacity
    W = len(spec.wind_states)
    S = spec.num_states
    x = np.array(spec.wind_states)
    U = np.array(action_values(spec))
    A = len(U)
    b = np.arange(B + 1)[:, None]
    lo, hi = _decision_bounds(spec, x[:, None, None], b)
    mask = (lo <= U) & (U <= hi)
    empty = np.flatnonzero(~mask.any(axis=2))
    if empty.size:
        w0, b0 = divmod(int(empty[0]), B + 1)
        raise ValidationError(f"state (wind {w0}, battery {b0}) has no action")
    w, bat, a = np.nonzero(mask)
    i = state_index(spec, w, bat)
    next_battery = bat - _battery_power(spec, bat, U[a])
    # the pairs come in (state, action) order, and each pair's next states
    # increase with the next wind level: CSR rows, the wind kernel's entries
    cols = state_index(spec, np.arange(W), next_battery[:, None])
    values = spec.wind_kernel[w]
    reward = np.zeros((S, A))
    reward[i, a] = x[w] + U[a]
    acts = a.tolist()
    ends = np.cumsum(mask.sum(axis=2).reshape(S)).tolist()
    feasible = tuple(tuple(acts[start:end]) for start, end in zip([0, *ends], ends))
    kernel = _csr_of_entries(S, A, np.repeat(i * A + a, W), cols.reshape(-1), values.reshape(-1))
    return MdpModel(S, A, feasible, None, reward, spec.beta, kernel_csr=kernel)


def action_values(spec: WindStorageSpec):
    """Physical meaning of each action index for the given scenario."""
    if spec.abandonment:
        u_min = -max(spec.wind_states)
        return tuple(range(u_min, max(spec.charge_actions) + 1))
    return tuple(spec.charge_actions)
