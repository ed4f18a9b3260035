"""Wind-plus-battery benchmark construction in both scenarios."""
import re

import numpy as np
import pytest

from conftest import outcome
from mvmdp import (
    WIND_KERNEL,
    DeterministicPolicy,
    JointState,
    MdpModel,
    ValidationError,
    WindStorageSpec,
    action_values,
    build,
    build_abandonment,
    build_no_abandonment,
    decompose_action,
    evaluate,
    load_model,
    sample_random_policy,
    save_model,
    simulate_path,
    state_index,
)


class TestSpec:
    def test_embedded_kernel_is_stochastic_and_frozen(self):
        assert WIND_KERNEL.shape == (6, 6)
        assert np.allclose(WIND_KERNEL.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            WIND_KERNEL[0, 0] = 0.5

    def test_defaults(self):
        spec = WindStorageSpec()
        assert spec.num_states == 36
        assert spec.charge_actions == (-2, -1, 0, 1, 2)
        assert not spec.abandonment

    def test_kernel_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            WindStorageSpec(wind_kernel=np.ones((3, 3)) / 3)

    def test_kernel_rows_checked(self):
        bad = np.array(WIND_KERNEL)
        bad[2, 0] += 0.05
        with pytest.raises(ValidationError, match="row 2 sums"):
            WindStorageSpec(wind_kernel=bad)
        neg = np.array(WIND_KERNEL)
        neg[0, 0] -= 1.0
        neg[0, 1] += 1.0
        with pytest.raises(ValidationError, match="negative"):
            WindStorageSpec(wind_kernel=neg)

    def test_nan_kernel_entry_is_rejected_at_the_spec(self):
        bad = np.array(WIND_KERNEL)
        bad[2, 1] = np.nan
        with pytest.raises(ValidationError, match="wind kernel row 2"):
            WindStorageSpec(wind_kernel=bad)

    def test_wind_levels_are_integers_with_abandonment(self):
        """The abandonment decisions run from minus the largest wind level,
        so a level that is not an integer is named when the spec is made;
        without abandonment the levels need only be real."""
        levels = (0, 1, 2, 3, 4, 5.5)
        with pytest.raises(ValidationError, match=r"^wind state must be an integer, got 5\.5$"):
            WindStorageSpec(wind_states=levels, abandonment=True)
        model = build(WindStorageSpec(wind_states=levels))
        assert model.reward.max() == 5.5 + max(WindStorageSpec().charge_actions)

    def test_battery_and_actions_checked(self):
        with pytest.raises(ValidationError, match="battery"):
            WindStorageSpec(battery_capacity=0)
        with pytest.raises(ValidationError, match="contain 0"):
            WindStorageSpec(charge_actions=(-1, 1))

    def test_joint_state_round_trip(self):
        spec = WindStorageSpec()
        for idx in range(36):
            js = JointState.from_flat(idx)
            assert state_index(spec, js.wind, js.battery) == idx
        assert state_index(spec, 2, 3) == 15

    @pytest.mark.parametrize("abandonment", [False, True], ids=["no-abandon", "abandon"])
    def test_decompose_accepts_exactly_the_feasible_decisions(self, abandonment):
        spec = WindStorageSpec(abandonment=abandonment)
        values = action_values(spec)
        mask = build(spec).feasible_mask()
        for i in range(spec.num_states):
            state = JointState.from_flat(i)
            for U in range(-6, 4):
                got = outcome(decompose_action, spec, state, U)
                if U in values and mask[i, values.index(U)]:
                    a, v = got[1]
                    assert a - v == U and 0 <= v <= spec.wind_states[state.wind]
                    assert v == 0 or abandonment
                else:
                    assert got[0] == "ValidationError"

    def test_decompose_keeps_the_battery_within_capacity_without_abandonment(self):
        """A full battery cannot take a charge, and without abandonment
        nothing else can absorb one."""
        spec = WindStorageSpec()
        with pytest.raises(ValidationError, match=r"outside feasible range \[0, 2\]"):
            decompose_action(spec, JointState(wind=5, battery=5), -2)
        with pytest.raises(ValidationError, match="not one of the actions"):
            decompose_action(WindStorageSpec(charge_actions=(-2, 0, 2)), JointState(3, 3), 1)

    @pytest.mark.parametrize("wind, battery", [(7, 0), (-1, 0), (0, 9)])
    def test_decompose_rejects_a_state_outside_the_spec(self, wind, battery):
        """A wind level past the last, a negative one (which indexing would
        read as the last) and a battery level above capacity are named as
        the state, not as an IndexError or an infeasible decision."""
        with pytest.raises(
            ValidationError,
            match=rf"^state \(wind {wind}, battery {battery}\) outside the spec: "
            r"wind 0\.\.5, battery 0\.\.5$",
        ):
            decompose_action(WindStorageSpec(), JointState(wind, battery), 0)

    @pytest.mark.parametrize("decision", [True, 1.0, "1"])
    def test_decompose_takes_an_integer_decision(self, decision):
        """A decision is an integer, as the state's levels are: a bool or a
        float is not read as one, and an integer of numpy's gives plain
        ints."""
        state = JointState(wind=3, battery=2)
        with pytest.raises(ValidationError, match=rf"^decision must be an integer, got {re.escape(repr(decision))}$"):
            decompose_action(WindStorageSpec(), state, decision)
        got = decompose_action(WindStorageSpec(), state, np.int64(1))
        assert got == (1, 0) and [type(x) for x in got] == [int, int]


class TestNoAbandonment:
    def test_shape_and_action_meaning(self, wind_model, wind_spec):
        assert wind_model.num_states == 36
        assert wind_model.num_actions == 5
        assert action_values(wind_spec) == (-2, -1, 0, 1, 2)
        assert wind_model.beta == 0.1

    def test_idle_action_always_feasible(self, wind_model, wind_spec):
        idle = wind_spec.charge_actions.index(0)
        for acts in wind_model.feasible:
            assert idle in acts

    def test_feasibility_corners(self, wind_model, wind_spec):
        acts = wind_spec.charge_actions
        # no wind, empty battery: only idling is possible
        i = state_index(wind_spec, 0, 0)
        assert [acts[a] for a in wind_model.feasible[i]] == [0]
        # no wind, full battery: can discharge but not charge
        i = state_index(wind_spec, 0, 5)
        assert [acts[a] for a in wind_model.feasible[i]] == [0, 1, 2]
        # high wind, empty battery: can charge but not discharge
        i = state_index(wind_spec, 5, 0)
        assert [acts[a] for a in wind_model.feasible[i]] == [-2, -1, 0]
        # interior state: every battery power allowed
        i = state_index(wind_spec, 3, 2)
        assert [acts[a] for a in wind_model.feasible[i]] == [-2, -1, 0, 1, 2]

    def test_reward_is_delivered_power(self, wind_model, wind_spec):
        for w in range(6):
            for b in range(6):
                i = state_index(wind_spec, w, b)
                for ai in wind_model.feasible[i]:
                    a = wind_spec.charge_actions[ai]
                    assert wind_model.reward[i, ai] == w + a
                    assert wind_model.reward[i, ai] >= 0

    def test_kernel_moves_battery_and_wind_independently(self, wind_model, wind_spec):
        i = state_index(wind_spec, 2, 4)
        ai = wind_spec.charge_actions.index(1)
        row = wind_model.kernel[i, ai]
        for w2 in range(6):
            j = state_index(wind_spec, w2, 3)
            assert row[j] == WIND_KERNEL[2, w2]
        assert row.sum() == pytest.approx(1.0)

    def test_battery_stays_in_bounds_on_paths(self, wind_model):
        rng = np.random.default_rng(0)
        d = sample_random_policy(wind_model, rng)
        path = simulate_path(wind_model, d, 5000, seed=1)
        batteries = np.array([JointState.from_flat(s).battery for s in path.states])
        assert batteries.min() >= 0
        assert batteries.max() <= 5

    def test_mean_is_policy_invariant(self, wind_model):
        rng = np.random.default_rng(2)
        means = [
            evaluate(wind_model, sample_random_policy(wind_model, rng)).j_mean
            for _ in range(50)
        ]
        assert max(means) - min(means) <= 1e-9

    def test_build_dispatcher_and_flag_check(self, wind_spec):
        m = build(wind_spec)
        assert m.num_actions == 5
        with pytest.raises(ValidationError, match="abandonment"):
            build_no_abandonment(WindStorageSpec(abandonment=True))

    def test_custom_kernel_changes_the_chain(self):
        lazy = np.full((6, 6), 1.0 / 6.0)
        m = build_no_abandonment(WindStorageSpec(wind_kernel=lazy))
        rng = np.random.default_rng(3)
        d = sample_random_policy(m, rng)
        rep = evaluate(m, d)
        assert rep.j_mean == pytest.approx(2.5, abs=1e-9)


@pytest.fixture(scope="module")
def spec():
    return WindStorageSpec(beta=1.0, abandonment=True)


class TestAbandonment:
    def test_shape_and_action_meaning(self, abandon_model_beta1, spec):
        assert abandon_model_beta1.num_states == 36
        assert abandon_model_beta1.num_actions == 8
        assert action_values(spec) == (-5, -4, -3, -2, -1, 0, 1, 2)

    def test_feasibility_bounds(self, abandon_model_beta1, spec):
        vals = action_values(spec)
        for w in range(6):
            for b in range(6):
                i = state_index(spec, w, b)
                us = [vals[ui] for ui in abandon_model_beta1.feasible[i]]
                assert us == list(range(-w, min(2, b) + 1))

    def test_reward_is_delivered_power(self, abandon_model_beta1, spec):
        vals = action_values(spec)
        for w in range(6):
            for b in range(6):
                i = state_index(spec, w, b)
                for ui in abandon_model_beta1.feasible[i]:
                    assert abandon_model_beta1.reward[i, ui] == w + vals[ui]
                    assert abandon_model_beta1.reward[i, ui] >= 0

    def test_decompose_passthrough_when_battery_can_absorb(self, spec):
        # battery half full: a discharge request maps straight to battery power
        a, v = decompose_action(spec, JointState(wind=3, battery=2), 1)
        assert (a, v) == (1, 0)
        a, v = decompose_action(spec, JointState(wind=3, battery=2), -2)
        assert (a, v) == (-2, 0)

    def test_decompose_spills_when_battery_full(self, spec):
        # full battery cannot charge at all: the whole surplus is abandoned
        a, v = decompose_action(spec, JointState(wind=5, battery=5), -5)
        assert (a, v) == (0, 5)
        # empty battery charges at the limit, remainder abandoned
        a, v = decompose_action(spec, JointState(wind=5, battery=0), -5)
        assert (a, v) == (-2, 3)
        # identity U = A - V holds either way
        assert a - v == -5

    def test_decompose_range_check(self, spec):
        with pytest.raises(ValidationError, match="outside feasible range"):
            decompose_action(spec, JointState(wind=1, battery=0), -2)
        with pytest.raises(ValidationError, match="outside feasible range"):
            decompose_action(spec, JointState(wind=5, battery=1), 2)

    def test_kernel_batteries_follow_decomposed_power(self, abandon_model_beta1, spec):
        vals = action_values(spec)
        i = state_index(spec, 5, 0)
        ui = vals.index(-5)
        row = abandon_model_beta1.kernel[i, ui]
        # battery charges by 2 (the limit), rest of the request is spilled
        for w2 in range(6):
            assert row[state_index(spec, w2, 2)] == WIND_KERNEL[5, w2]

    def test_flag_check(self):
        with pytest.raises(ValidationError, match="abandonment"):
            build_abandonment(WindStorageSpec())

    def test_abandonment_can_only_lower_the_mean(self, abandon_model_beta1, wind_model):
        rng = np.random.default_rng(4)
        base_mean = evaluate(wind_model, sample_random_policy(wind_model, rng)).j_mean
        for _ in range(10):
            d = sample_random_policy(abandon_model_beta1, rng)
            assert evaluate(abandon_model_beta1, d).j_mean <= base_mean + 1e-9


def test_model_file_round_trip_is_exact(tmp_path, wind_model):
    path = tmp_path / "wind.json"
    save_model(wind_model, str(path))
    back = load_model(str(path))
    assert back.feasible == wind_model.feasible
    assert np.array_equal(back.kernel, wind_model.kernel)
    assert np.array_equal(back.reward, wind_model.reward)
    assert back.beta == wind_model.beta


def _joint_kernel_row(spec, wind, battery_next):
    row = np.zeros(spec.num_states)
    for w2, p in enumerate(spec.wind_kernel[wind]):
        row[state_index(spec, w2, battery_next)] = p
    return row


def loop_build_no_abandonment(spec):
    """Per-state reference builder without abandonment."""
    B = spec.battery_capacity
    acts = spec.charge_actions
    S = spec.num_states
    A = len(acts)
    feasible = []
    kernel = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    for w, x_power in enumerate(spec.wind_states):
        for b in range(B + 1):
            i = state_index(spec, w, b)
            allowed = [ai for ai, a in enumerate(acts) if b - B <= a <= b and a >= -x_power]
            if not allowed:
                raise ValidationError(f"state (wind {w}, battery {b}) has no action")
            feasible.append(tuple(allowed))
            for ai in allowed:
                a = acts[ai]
                reward[i, ai] = x_power + a
                kernel[i, ai] = _joint_kernel_row(spec, w, b - a)
    return MdpModel(S, A, tuple(feasible), kernel, reward, spec.beta)


def loop_build_abandonment(spec):
    """Per-state reference builder with abandonment: the battery takes what
    it can of a charging request, the rest of the wind is spilled."""
    B = spec.battery_capacity
    S = spec.num_states
    u_max = max(spec.charge_actions)
    decisions = list(range(-max(spec.wind_states), u_max + 1))
    A = len(decisions)
    feasible = []
    kernel = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    for w, x_power in enumerate(spec.wind_states):
        for b in range(B + 1):
            i = state_index(spec, w, b)
            allowed = [ui for ui, u in enumerate(decisions) if -x_power <= u <= min(u_max, b)]
            if not allowed:
                raise ValidationError(f"state (wind {w}, battery {b}) has no action")
            feasible.append(tuple(allowed))
            for ui in allowed:
                u = decisions[ui]
                a_floor = max(min(spec.charge_actions), b - B)
                a = u if u >= a_floor else a_floor
                reward[i, ui] = x_power + u
                kernel[i, ui] = _joint_kernel_row(spec, w, b - a)
    return MdpModel(S, A, tuple(feasible), kernel, reward, spec.beta)


def _uniform(n):
    return np.full((n, n), 1.0 / n)


@pytest.mark.parametrize("abandonment", [False, True])
@pytest.mark.parametrize("B", [1, 2, 5, 20])
def test_array_build_matches_loop_reference(B, abandonment):
    reference = loop_build_abandonment if abandonment else loop_build_no_abandonment
    variants = [
        {},
        {"wind_kernel": _uniform(6)},
        {"charge_actions": (-2, 0, 2)},
        {"charge_actions": (-5, -2, 0, 2, 5)},
        {"wind_states": (0, 2, 5), "wind_kernel": _uniform(3)},
        {"wind_states": (0, 3, 7), "wind_kernel": _uniform(3)},
        {"wind_states": (0, 3, 7), "wind_kernel": _uniform(3), "charge_actions": (-5, -2, 0, 2, 5)},
        {"wind_states": (2, -1, 5), "wind_kernel": _uniform(3)},
    ]
    for extra in variants:
        spec = WindStorageSpec(battery_capacity=B, abandonment=abandonment, **extra)
        got, want = outcome(build, spec), outcome(reference, spec)
        if want[0] != "ok":
            assert got == want, extra
            continue
        assert got[0] == "ok", (extra, got)
        assert got[1].feasible == want[1].feasible, extra
        assert np.array_equal(got[1].kernel, want[1].kernel), extra
        assert np.array_equal(got[1].reward, want[1].reward), extra
