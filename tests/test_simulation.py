"""Trajectory sampling, batch-means estimation, and potential estimation."""
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_policy_cases, random_mdp, threshold_policy
from mvmdp import (
    DeterministicPolicy,
    EvaluationError,
    MdpModel,
    PathSample,
    RandomizedPolicy,
    ValidationError,
    WIND_KERNEL,
    WindStorageSpec,
    build,
    estimate_metrics,
    estimate_potential,
    evaluate,
    induced_chain,
    induced_chain_randomized,
    sample_random_policy,
    simulate_path,
)
from mvmdp import simulation
from mvmdp.evaluation import _policy_chain
from mvmdp.model import _positive_rows


def dense_cumulative(rows):
    """The dense next-state rule the support tables replace: cumulative
    sums along the last axis, set to 1.0 from each row's last positive
    entry on; a draw u moves to bisect_right(cum, u) = count(cum <= u)."""
    cum = np.cumsum(rows, axis=-1)
    n = rows.shape[-1]
    last = n - 1 - np.argmax(rows[..., ::-1] > 0, axis=-1)
    cum[np.arange(n) >= last[..., None]] = 1.0
    return cum


class TestSimulatePath:
    def test_shapes_and_start_state(self):
        rng = np.random.default_rng(0)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        path = simulate_path(m, d, 500, seed=1, start_state=1)
        assert path.states.shape == (500,)
        assert path.actions.shape == (500,)
        assert path.rewards.shape == (500,)
        assert path.states[0] == 1
        assert np.all((0 <= path.states) & (path.states < m.num_states))

    def test_rewards_and_actions_follow_the_policy(self):
        rng = np.random.default_rng(2)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        path = simulate_path(m, d, 300, seed=3)
        assert np.array_equal(path.actions, d.action[path.states])
        assert np.array_equal(path.rewards, m.reward[path.states, path.actions])

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(4)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        a = simulate_path(m, d, 200, seed=9)
        b = simulate_path(m, d, 200, seed=9)
        c = simulate_path(m, d, 200, seed=10)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_randomized_policy_uses_its_distribution(self):
        rng = np.random.default_rng(5)
        m = random_mdp(rng)
        theta_rows = np.full((m.num_states, m.num_actions), 1.0 / m.num_actions)
        theta = RandomizedPolicy(theta_rows)
        path = simulate_path(m, theta, 4000, seed=6)
        counts = np.bincount(path.actions, minlength=m.num_actions)
        assert np.all(counts > 0)
        frac = counts / counts.sum()
        assert np.allclose(frac, 1.0 / m.num_actions, atol=0.05)

    def test_empirical_frequencies_approach_stationary(self):
        rng = np.random.default_rng(7)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        rep = evaluate(m, d)
        path = simulate_path(m, d, 60_000, seed=8)
        freq = np.bincount(path.states, minlength=m.num_states) / len(path.states)
        assert np.allclose(freq, rep.pi, atol=0.02)

    def test_validation(self):
        rng = np.random.default_rng(9)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        with pytest.raises(ValidationError, match="length"):
            simulate_path(m, d, 0)
        with pytest.raises(ValidationError, match="start_state"):
            simulate_path(m, d, 10, start_state=m.num_states)
        with pytest.raises(ValidationError, match="cannot simulate"):
            simulate_path(m, object(), 10)


class _TopDraws:
    """A generator stand-in whose every draw is nextafter(1, 0), the largest
    value `Generator.random` returns."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


class TestNextStateDraw:
    """Every draw in [0, 1) lands on a next state of positive probability,
    also on a row whose sum rounds below 1."""

    def _wind_chain(self):
        """The B=5 chain of the first feasible actions and a state of wind
        level 2, whose WIND_KERNEL row cumulates to nextafter(1, 0)."""
        m = build(WindStorageSpec())
        d = DeterministicPolicy(np.array([acts[0] for acts in m.feasible]))
        P, _ = induced_chain(m, d)
        i = 2 * 6
        assert np.cumsum(P[i])[-1] == np.nextafter(1.0, 0.0)
        return m, d, P, i

    def test_bisect_and_count_rules(self):
        _, _, P, i = self._wind_chain()
        u = np.nextafter(1.0, 0.0)
        nxt, thresholds = simulation._dense_support_table(P)
        for k in (bisect_right(thresholds[i].tolist(), u), int(np.count_nonzero(thresholds[i] <= u))):
            assert P[i, nxt[i, k]] > 0

    def test_top_draw_stays_on_the_row(self, monkeypatch):
        m, d, P, i = self._wind_chain()
        monkeypatch.setattr(np.random, "default_rng", lambda *args: _TopDraws())
        path = simulate_path(m, d, 5, start_state=i)
        assert np.all(P[path.states[:-1], path.states[1:]] > 0)
        theta = d.as_randomized(m)
        path = simulate_path(m, theta, 5, start_state=i)
        assert np.all(P[path.states[:-1], path.states[1:]] > 0)

    def test_draws_inside_a_row_keep_their_index(self, wind_model):
        P, _ = induced_chain(wind_model, sample_random_policy(wind_model, np.random.default_rng(3)))
        u = np.random.default_rng(4).random(2000)
        plain = np.cumsum(P, axis=1)
        for row, nxt, thresholds in zip(plain, *simulation._dense_support_table(P)):
            inside = u[u < row[-1]]
            old = np.searchsorted(row, inside, side="right")
            assert np.array_equal(nxt[np.searchsorted(thresholds, inside, side="right")], old)
            assert np.array_equal(nxt[(thresholds <= inside[:, None]).sum(axis=1)], old)


def loop_simulate_path(model, policy, T, seed=0, start_state=0):
    """Per-step reference: bisection on the dense rows of dense_cumulative."""
    rng = np.random.default_rng(seed)
    states = np.empty(T, dtype=int)
    if isinstance(policy, DeterministicPolicy):
        P, r = induced_chain(model, policy)
        cum = dense_cumulative(P).tolist()
        us = rng.random(T)
        i = start_state
        for t in range(T):
            states[t] = i
            i = bisect_right(cum[i], us[t])
        return PathSample(states, policy.action[states].copy(), r[states])
    cum_theta = dense_cumulative(policy.theta).tolist()
    cum_kernel = dense_cumulative(model.kernel).tolist()
    ua = rng.random(T)
    us = rng.random(T)
    actions = np.empty(T, dtype=int)
    i = start_state
    for t in range(T):
        states[t] = i
        a = bisect_right(cum_theta[i], ua[t])
        actions[t] = a
        i = bisect_right(cum_kernel[i][a], us[t])
    return PathSample(states, actions, model.reward[states, actions].copy())


def dense_accumulate_cost(P, f, J, start, truncation, reps, seed):
    """Reference for simulation._accumulate_cost: every replication counts
    its next state over a whole dense_cumulative row."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, start]))
    cum = dense_cumulative(P)
    cur = np.full(reps, start, dtype=int)
    acc = np.zeros(reps)
    excess = f - J
    for t in range(truncation + 1):
        acc += excess[cur]
        if t == truncation:
            break
        u = rng.random(reps)
        cur = (cum[cur] <= u[:, None]).sum(axis=1)
    return float(acc.mean()), float(acc.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0


def next_states_accumulate_cost(chain, f, J, start, truncation, reps, seed):
    """Reference for simulation._accumulate_cost: every step of every
    replication takes the exact count of `_next_states` on the chain's
    support table, with no bucket table."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, start]))
    nxt, thresholds = simulation._support_table(*_positive_rows(chain.indptr, chain.cols, chain.values))
    cur = np.full(reps, start, dtype=int)
    acc = np.zeros(reps)
    excess = f - J
    for t in range(truncation + 1):
        acc += excess[cur]
        if t == truncation:
            break
        cur = simulation._next_states(nxt, thresholds, cur, rng.random(reps))
    return float(acc.mean()), float(acc.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0


class TestPotentialWalkReference:
    """estimate_potential gives the value and std_error of the exact-count
    walk bit for bit."""

    @staticmethod
    def check(model, policy, state, truncation, reps, seed):
        report = evaluate(model, policy)
        chain = _policy_chain(model, policy)[0]
        args = (report.cost, report.j_combined)
        mean_s, se_s = next_states_accumulate_cost(chain, *args, state, truncation, reps, seed)
        mean_0, se_0 = next_states_accumulate_cost(chain, *args, 0, truncation, reps, seed)
        got = estimate_potential(model, policy, state, truncation, reps, seed)
        assert (got.value, got.std_error) == (mean_s - mean_0, float(np.hypot(se_s, se_0)))

    @pytest.mark.parametrize("abandonment", [False, True])
    def test_wind_b5(self, abandonment):
        spec = WindStorageSpec(abandonment=abandonment)
        m = build(spec)
        for k, policy in enumerate([threshold_policy(spec), _uniform_theta(m)]):
            self.check(m, policy, 7 + 20 * k, 200, 2000, seed=k)
        self.check(m, threshold_policy(spec), m.num_states - 1, 200, 10_000, seed=0)

    def test_random_models(self):
        rng = np.random.default_rng(120)
        for k, (m, d) in enumerate(model_policy_cases([], seed=120, random_models=3, policies_per_model=1)):
            for policy in (d, *_thetas(m, rng)):
                self.check(m, policy, m.num_states - 1, 50, 500, seed=k)


class TestSimulateLoopReference:
    """Bisection on lists of Python floats gives the reference's path bit
    for bit, for deterministic and randomized policies."""

    def test_paths_match(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(70)
        cases = list(model_policy_cases([wind_model, abandon_model_beta1], seed=70, policies_per_model=2))
        for k, (m, d) in enumerate(cases):
            theta = rng.dirichlet(np.ones(m.num_actions), size=m.num_states) * m.feasible_mask()
            theta = RandomizedPolicy(theta / theta.sum(axis=1, keepdims=True))
            start = int(rng.integers(m.num_states))
            for policy in (d, theta):
                got = simulate_path(m, policy, 3000, seed=k, start_state=start)
                want = loop_simulate_path(m, policy, 3000, seed=k, start_state=start)
                for field in ("states", "actions", "rewards"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert g.dtype == w.dtype and np.array_equal(g, w)


def _uniform_theta(model):
    theta = model.feasible_mask().astype(float)
    return RandomizedPolicy(theta / theta.sum(axis=1, keepdims=True))


class TestSimulateRandomizedLarge:
    """A randomized path converts only the kernel rows it visits."""

    @pytest.fixture(scope="class")
    def model_b50(self):
        return build(WindStorageSpec(battery_capacity=50))

    def test_paths_match_full_conversion(self, abandon_model_b20, model_b50):
        for m in (abandon_model_b20, model_b50):
            theta = _uniform_theta(m)
            for seed in range(3):
                got = simulate_path(m, theta, 2000, seed=seed)
                want = loop_simulate_path(m, theta, 2000, seed=seed)
                for field in ("states", "actions", "rewards"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_peak_memory_does_not_scale_with_the_kernel(self, model_b50):
        theta = _uniform_theta(model_b50)
        tracemalloc.start()
        try:
            simulate_path(model_b50, theta, 200, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class _FixedDraws:
    """A generator stand-in whose draws repeat `values` in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        return np.resize(self.values, n)


def _corner_model():
    """Six states, two actions. Action 0 follows WIND_KERNEL, whose row 2
    cumulates to nextafter(1, 0). Action 1 has a sub-ulp entry (a tie:
    0.5 + 2**-60 is 0.5), -0.0 entries before, between and after the
    positive ones, a row that also cumulates to nextafter(1, 0) before its
    last -0.0, a row of one entry and a last column of 1.0."""
    tie = 2.0**-60
    rows = np.array([
        [0.5, tie, 0.0, 0.5, 0.0, 0.0],
        [-0.0, 0.25, -0.0, 0.75, -0.0, -0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.7, -0.0, 0.2, 0.1, 0.0, -0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [tie, 0.5, 0.0, 0.0, 0.5, 0.0],
    ])
    kernel = np.stack([WIND_KERNEL, rows], axis=1)
    reward = np.arange(12.0).reshape(6, 2)
    return MdpModel(6, 2, ((0, 1),) * 6, kernel, reward, 0.5)


def _thetas(model, rng):
    """The uniform feasible theta and a random one with zero entries on
    feasible actions."""
    mask = model.feasible_mask()
    keep = mask & (rng.random(mask.shape) < 0.6)
    keep[np.arange(model.num_states), model.feasible_actions()[0][:, 0]] = True
    theta = rng.dirichlet(np.ones(model.num_actions), size=model.num_states) * keep
    return [_uniform_theta(model), RandomizedPolicy(theta / theta.sum(axis=1, keepdims=True))]


class TestSupportTablesKeepTheDenseRule:
    """simulate_path and _accumulate_cost give the paths and estimates of
    the dense cumulative rows bit for bit."""

    @staticmethod
    def check_paths(model, policies, seeds, T=2000):
        for policy in policies:
            for seed in seeds:
                start = seed % model.num_states
                got = simulate_path(model, policy, T, seed=seed, start_state=start)
                want = loop_simulate_path(model, policy, T, seed=seed, start_state=start)
                for field in ("states", "actions", "rewards"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert g.dtype == w.dtype and np.array_equal(g, w), field

    @staticmethod
    def check_costs(model, policy, starts, seed, reps=300, truncation=40):
        """_accumulate_cost on the rows of the policy's chain, as
        estimate_potential runs it, against the reference on its dense
        chain."""
        chain = _policy_chain(model, policy)[0]
        if isinstance(policy, DeterministicPolicy):
            P = induced_chain(model, policy)[0]
        else:
            P = induced_chain_randomized(model, policy)[0]
        f = np.sin(np.arange(P.shape[0]) + seed)
        for start in starts:
            got = simulation._accumulate_cost(chain, f, 0.25, start, truncation, reps, seed)
            assert got == dense_accumulate_cost(P, f, 0.25, start, truncation, reps, seed)

    @pytest.mark.parametrize("battery", [5, 50])
    @pytest.mark.parametrize("abandonment", [False, True])
    def test_wind(self, battery, abandonment):
        spec = WindStorageSpec(battery_capacity=battery, abandonment=abandonment)
        m = build(spec)
        rng = np.random.default_rng(battery + abandonment)
        policies = [threshold_policy(spec), sample_random_policy(m, rng), *_thetas(m, rng)]
        self.check_paths(m, policies, seeds=range(2))
        for policy in policies:
            self.check_costs(m, policy, starts=(0, m.num_states - 1), seed=3)

    def test_random_models(self):
        rng = np.random.default_rng(90)
        for m, d in model_policy_cases([], seed=90, random_models=4, policies_per_model=1):
            self.check_paths(m, [d, *_thetas(m, rng)], seeds=(1,), T=500)
            for policy in (d, *_thetas(m, rng)):
                self.check_costs(m, policy, starts=range(m.num_states), seed=4)

    def test_corner_rows(self, monkeypatch):
        m = _corner_model()
        rng = np.random.default_rng(91)
        policies = [DeterministicPolicy(np.zeros(6, dtype=int)), DeterministicPolicy(np.ones(6, dtype=int))]
        policies += _thetas(m, rng)
        self.check_paths(m, policies, seeds=range(3), T=300)
        for policy in policies:
            self.check_costs(m, policy, starts=range(6), seed=5)
        # draws on the thresholds themselves and the largest draw
        top = np.nextafter(1.0, 0.0)
        draws = [0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, top, 0.5, 0.999, top, 0.1, 0.5]
        monkeypatch.setattr(np.random, "default_rng", lambda *args: _FixedDraws(draws))
        self.check_paths(m, policies, seeds=range(6), T=60)
        for policy in policies:
            self.check_costs(m, policy, starts=range(6), seed=5, reps=len(draws))

    def test_single_state(self, single_state_model):
        d = DeterministicPolicy(np.zeros(1, dtype=int))
        self.check_paths(single_state_model, [d, d.as_randomized(single_state_model)], seeds=(0,), T=50)
        path = simulate_path(single_state_model, d, 50)
        assert np.array_equal(path.states, np.zeros(50, dtype=int))
        self.check_costs(single_state_model, d, starts=(0,), seed=6)


def _cycle_model(S=50):
    """A permutation cycle: one entry per row, so walks from two states
    never meet."""
    kernel = np.zeros((S, 1, S))
    kernel[np.arange(S), 0, (np.arange(S) + 1) % S] = 1.0
    return MdpModel(S, 1, ((0,),) * S, kernel, np.arange(S, dtype=float)[:, None], 0.5)


def _same_path(got, want):
    for field in ("states", "actions", "rewards"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and np.array_equal(g, w), field


CHUNK = simulation.CHUNK_STEPS


class TestChunkedWalk:
    """The chunked walk gives the per-step reference path bit for bit, at
    every chunk layout, on chains that couple fast, slowly or never, and
    whether the probe hands the path to the loop or not."""

    @pytest.fixture(params=["probe", "no probe"])
    def probe(self, request, monkeypatch):
        """As is, or with the coalescence probe always passing, so that the
        passes run also on chains the probe would hand to the loop."""
        if request.param == "no probe":
            monkeypatch.setattr(simulation, "_coalesces", lambda *args: True)
        return request.param

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1]),
        st.booleans(),
        st.booleans(),
    )
    def test_chunk_edges_on_random_models(self, seed, T, randomized, skip_probe):
        """Paths of no chunk, one chunk, one chunk and a step, and three
        chunks and a step, with chunks allowed from the first one."""
        rng = np.random.default_rng(seed)
        m = random_mdp(rng)
        policy = _thetas(m, rng)[1] if randomized else sample_random_policy(m, rng)
        start = int(rng.integers(m.num_states))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "MIN_CHUNKS", 1)
            if skip_probe:
                patch.setattr(simulation, "_coalesces", lambda *args: True)
            got = simulate_path(m, policy, T, seed=seed % 1000, start_state=start)
        _same_path(got, loop_simulate_path(m, policy, T, seed=seed % 1000, start_state=start))

    def test_permutation_cycle(self, probe):
        m = _cycle_model()
        d = DeterministicPolicy(np.zeros(m.num_states, dtype=int))
        for start in (0, 17):
            _same_path(simulate_path(m, d, 60_001, seed=start, start_state=start),
                       loop_simulate_path(m, d, 60_001, seed=start, start_state=start))

    @pytest.mark.parametrize("battery", [5, 20, 50])
    def test_wind_thresholds_and_thetas(self, probe, battery):
        spec = WindStorageSpec(battery_capacity=battery, abandonment=battery == 20)
        m = build(spec)
        rng = np.random.default_rng(battery)
        for k, policy in enumerate([threshold_policy(spec), *_thetas(m, rng)]):
            T = 50_000 + 37 * k
            _same_path(simulate_path(m, policy, T, seed=k, start_state=k),
                       loop_simulate_path(m, policy, T, seed=k, start_state=k))

    @pytest.mark.parametrize("loop_lanes", [1, 10**9])
    def test_loop_hand_overs(self, monkeypatch, loop_lanes):
        """Stragglers walked by the loop, chunk by chunk, or every chunk of
        the first pass handed to the loop."""
        monkeypatch.setattr(simulation, "_coalesces", lambda *args: True)
        monkeypatch.setattr(simulation, "LOOP_LANES", loop_lanes)
        spec = WindStorageSpec(battery_capacity=20)
        m = build(spec)
        for policy in (threshold_policy(spec), _uniform_theta(m)):
            _same_path(simulate_path(m, policy, 50_050, seed=3), loop_simulate_path(m, policy, 50_050, seed=3))

    def test_work_bound_on_the_cycle(self, monkeypatch, probe):
        """The numpy steps of the probe and the passes, counted one per walk
        advanced, stay within 3 T on a chain that never couples."""
        steps = []
        rule = simulation._draw_rule

        def counted(*args):
            draw = rule(*args)

            def step(rows, u):
                steps.append(rows.size)
                return draw(rows, u)

            return step

        monkeypatch.setattr(simulation, "_draw_rule", counted)
        m = _cycle_model()
        T = 60_000
        simulate_path(m, DeterministicPolicy(np.zeros(m.num_states, dtype=int)), T, seed=1)
        assert 0 < sum(steps) <= 3 * T

    def test_one_draw_rule_per_path(self, monkeypatch):
        """A long deterministic path builds its step once, for the probe
        and the passes alike; a path under MIN_CHUNKS chunks builds none."""
        calls = []
        rule = simulation._draw_rule

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(simulation, "_draw_rule", counted)
        spec = WindStorageSpec()
        m, d = build(spec), threshold_policy(spec)
        for T, want in ((simulation.MIN_CHUNKS * CHUNK - 1, 0), (60_000, 1)):
            calls.clear()
            _same_path(simulate_path(m, d, T, seed=2), loop_simulate_path(m, d, T, seed=2))
            assert len(calls) == want, T

    def test_fixed_and_top_draws(self, monkeypatch):
        """The walk draws only through `Generator.random(n)`: stand-ins that
        repeat a few values, or give the largest draw only, still give the
        reference path."""
        m = _corner_model()
        policies = [DeterministicPolicy(np.zeros(6, dtype=int)), DeterministicPolicy(np.ones(6, dtype=int))]
        policies += _thetas(m, np.random.default_rng(92))
        top = np.nextafter(1.0, 0.0)
        draws = [0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, top, 0.5, 0.999, top, 0.1, 0.5]
        for stand_in in (_FixedDraws(draws), _TopDraws()):
            monkeypatch.setattr(np.random, "default_rng", lambda *args: stand_in)
            for k, policy in enumerate(policies):
                _same_path(simulate_path(m, policy, 50_000 + k, start_state=k),
                           loop_simulate_path(m, policy, 50_000 + k, start_state=k))


class TestSampler:
    """The bucket table counts thresholds below a draw as the exact rule
    does, also on bucket edges, on thresholds, on ties and where one bucket
    holds two distinct thresholds."""

    def test_matches_the_exact_count(self):
        rng = np.random.default_rng(93)
        mixed = 0
        for trial in range(200):
            rows = rng.dirichlet(np.full(8, rng.uniform(0.05, 3.0)), size=int(rng.integers(1, 30)))
            if trial % 3 == 0:
                rows = np.round(rows * rng.choice([8, 64, 256, 1000]))
                rows[rows.sum(axis=1) == 0, 0] = 1.0
                rows /= rows.sum(axis=1, keepdims=True)
            if trial % 5 == 0:
                rows[:, 0] = 2.0**-60  # a tie: the next sum equals this one
            rows[rng.random(rows.shape) < 0.2] = -0.0
            rows[(rows > 0).sum(axis=1) == 0, -1] = 1.0
            nxt, thresholds = simulation._dense_support_table(rows)
            sampler = simulation._Sampler(nxt, thresholds)
            mixed += sampler.mixed
            at = rng.integers(0, rows.shape[0], 3000)
            u = rng.random(3000)
            u[:500] = rng.integers(0, 2**simulation.BUCKET_BITS, 500) / 2**simulation.BUCKET_BITS
            on = thresholds[at[500:1000], rng.integers(0, thresholds.shape[1], 500)]
            u[500:1000] = np.where(on < 1, on, np.nextafter(1.0, 0.0))
            u[1000:1500] = np.nextafter(u[500:1000], 0.0)
            u[1500:1600] = np.nextafter(1.0, 0.0)
            assert np.array_equal(sampler(at, u), simulation._next_states(nxt, thresholds, at, u)), trial
        assert 0 < mixed < 200


class TestSimulationMemory:
    """A path's tables grow with the kernel's entries, not with S * S."""

    @pytest.fixture(scope="class")
    def b200(self):
        spec = WindStorageSpec(battery_capacity=200)
        return build(spec), threshold_policy(spec)

    def test_peak_at_b200(self, b200):
        m, d = b200
        for policy in (d, _uniform_theta(m)):
            tracemalloc.start()
            try:
                simulate_path(m, policy, 20_000, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, type(policy).__name__


def test_import_leaves_scipy_stats_out():
    """The batch-means quantile does not load scipy.stats."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mvmdp, mvmdp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_half_width_quantile_is_scipy_stats_t():
    """_batch_half_width's quantile is scipy.stats.t.ppf's, bit for bit."""
    from scipy.stats import t as student_t

    for nb in range(2, 1001):
        estimates = np.arange(nb, dtype=float) ** 1.5
        want = float(student_t.ppf(0.975, df=nb - 1)) * float(np.std(estimates, ddof=1)) / np.sqrt(nb)
        assert simulation._batch_half_width(estimates) == want


class TestEstimateMetrics:
    def test_constant_rewards_are_exact_with_zero_half_widths(self):
        est = estimate_metrics(np.full(1000, 2.5), beta=0.4)
        assert est.j_mean_hat == 2.5
        assert est.j_var_hat == 0.0
        assert est.j_combined_hat == 2.5
        assert est.half_width_mean == 0.0
        assert est.half_width_var == 0.0
        assert est.half_width_combined == 0.0

    def test_accepts_path_sample(self):
        rng = np.random.default_rng(10)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        path = simulate_path(m, d, 900, seed=11)
        est1 = estimate_metrics(path, m.beta)
        est2 = estimate_metrics(path.rewards, m.beta)
        assert est1.j_mean_hat == est2.j_mean_hat
        assert est1.half_width_var == est2.half_width_var

    def test_point_estimates_match_numpy(self):
        rewards = np.random.default_rng(12).normal(size=500)
        est = estimate_metrics(rewards, beta=0.3)
        assert est.j_mean_hat == pytest.approx(rewards.mean())
        assert est.j_var_hat == pytest.approx(((rewards - rewards.mean()) ** 2).mean())
        assert est.j_combined_hat == pytest.approx(est.j_mean_hat - 0.3 * est.j_var_hat)

    def test_half_width_shrinks_with_horizon(self):
        rng = np.random.default_rng(13)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        short = estimate_metrics(simulate_path(m, d, 2_000, seed=14), m.beta)
        long = estimate_metrics(simulate_path(m, d, 200_000, seed=14), m.beta)
        assert long.half_width_mean < short.half_width_mean

    def test_covers_analytic_value_on_long_paths(self):
        rng = np.random.default_rng(15)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        rep = evaluate(m, d)
        est = estimate_metrics(simulate_path(m, d, 300_000, seed=16), m.beta)
        assert abs(est.j_mean_hat - rep.j_mean) <= 3 * est.half_width_mean
        assert abs(est.j_var_hat - rep.j_var) <= 3 * est.half_width_var
        assert abs(est.j_combined_hat - rep.j_combined) <= 3 * est.half_width_combined

    def test_too_short_path_rejected(self):
        with pytest.raises(ValidationError, match=">= 2"):
            estimate_metrics(np.array([1.0]), beta=0.5)
        with pytest.raises(ValidationError, match="beta"):
            estimate_metrics(np.ones(10), beta=0.0)

    def test_beta_must_be_positive_and_finite(self):
        rewards = [1.0, 2.0, 0.5, 3.0]
        with pytest.raises(ValidationError, match=r"^beta must be finite, got inf$"):
            estimate_metrics(rewards, np.inf, num_batches=2)
        for beta in (0.0, -1.0, -np.inf, np.nan):
            with pytest.raises(ValidationError, match=r"^beta must be > 0, got "):
                estimate_metrics(rewards, beta, num_batches=2)

    @pytest.mark.parametrize("rewards, detail", [
        (np.ones((10, 2)), ", got shape (10, 2)"),
        (3.0, ", got shape ()"),
        (["a", "b", "c"], ""),
        ([1.0, None, 2.0], ""),
        ([[1.0, 2.0], [3.0]], ""),
        ([1.0 + 2.0j, 3.0, 4.0], ""),
    ])
    def test_rewards_must_be_a_1d_sequence_of_numbers(self, rewards, detail):
        """Checked before the length: a 2-D array, a scalar, strings,
        None, a ragged list or complex values never reach numpy."""
        message = "rewards must be a 1-D sequence of numbers" + detail
        with pytest.raises(ValidationError) as info:
            estimate_metrics(rewards, 0.1, num_batches=3)
        assert str(info.value) == message

    def test_integer_and_boolean_rewards_are_numbers(self):
        want = estimate_metrics([1.0, 0.0, 1.0, 1.0], 0.1, num_batches=2)
        assert estimate_metrics([1, 0, 1, 1], 0.1, num_batches=2) == want
        assert estimate_metrics(np.array([True, False, True, True]), 0.1, num_batches=2) == want

    def test_batches_must_be_positive(self):
        for nb in (0, -1):
            with pytest.raises(ValidationError, match=f"num_batches must be >= 1, got {nb}"):
                estimate_metrics(np.arange(10.0), beta=0.5, num_batches=nb)

    def test_short_paths_use_fewer_batches(self):
        est = estimate_metrics(np.arange(7, dtype=float), beta=1.0)
        assert est.horizon == 7
        assert est.half_width_mean > 0


class TestEstimatePotential:
    def test_reference_state_is_exactly_zero(self, two_state_hand_model):
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        pe = estimate_potential(two_state_hand_model, d, state=0, seed=1)
        assert pe.value == 0.0
        assert pe.std_error == 0.0

    def test_reference_state_runs_no_walk(self, two_state_hand_model, monkeypatch):
        walks = []  # the start state of each Monte Carlo walk
        accumulate = simulation._accumulate_cost

        def counted(P, f, J, start, *rest):
            walks.append(start)
            return accumulate(P, f, J, start, *rest)

        monkeypatch.setattr(simulation, "_accumulate_cost", counted)
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        assert estimate_potential(two_state_hand_model, d, state=0).value == 0.0
        assert walks == []
        estimate_potential(two_state_hand_model, d, state=1, num_replications=10)
        assert walks == [1, 0]

    def test_reference_state_still_needs_a_unique_stationary_distribution(self):
        split = MdpModel(2, 1, ((0,), (0,)), np.eye(2)[:, None, :], np.zeros((2, 1)), 0.5)
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        with pytest.raises(EvaluationError, match="not unique"):
            estimate_potential(split, d, state=0)

    def test_replications_must_be_positive(self, two_state_hand_model):
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        for reps in (0, -3):
            with pytest.raises(ValidationError, match=f"num_replications must be >= 1, got {reps}"):
                estimate_potential(two_state_hand_model, d, state=1, num_replications=reps)

    def test_hand_model_agrees_with_exact_potential(self, two_state_hand_model):
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        pe = estimate_potential(
            two_state_hand_model, d, state=1, truncation=200, num_replications=4000, seed=2
        )
        assert abs(pe.value - (-1.0)) <= 3 * pe.std_error
        assert pe.state == 1
        assert pe.num_replications == 4000

    def test_reproducible_in_seed(self, two_state_hand_model):
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        a = estimate_potential(two_state_hand_model, d, state=1, num_replications=500, seed=3)
        b = estimate_potential(two_state_hand_model, d, state=1, num_replications=500, seed=3)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_random_model_within_error_bars(self):
        rng = np.random.default_rng(17)
        m = random_mdp(rng, max_states=4, max_actions=3)
        d = sample_random_policy(m, rng)
        rep = evaluate(m, d)
        for s in range(1, m.num_states):
            pe = estimate_potential(m, d, state=s, truncation=400, num_replications=6000, seed=s)
            assert abs(pe.value - rep.potential[s]) <= 4 * max(pe.std_error, 1e-3)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6))
def test_path_state_support_matches_reachability(seed):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng)
    d = sample_random_policy(m, rng)
    path = simulate_path(m, d, 3000, seed=seed)
    # dirichlet chains are irreducible, so every state appears on a long path
    assert len(np.unique(path.states)) == m.num_states


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(2, 200))
def test_estimate_metrics_identity_holds(seed, T):
    rewards = np.random.default_rng(seed).normal(size=T)
    est = estimate_metrics(rewards, beta=0.7)
    assert est.j_combined_hat == pytest.approx(est.j_mean_hat - 0.7 * est.j_var_hat)
    assert est.half_width_mean >= 0.0


class TestErrorPaths:
    def test_one_batch_has_zero_half_widths(self):
        rewards = [1.0, 2.0, 3.0, 5.0]
        est = estimate_metrics(rewards, 0.1, num_batches=1)
        assert (est.half_width_mean, est.half_width_var, est.half_width_combined) == (0.0, 0.0, 0.0)
        assert est.j_mean_hat == 2.75 and est.horizon == 4
        assert est.j_var_hat == estimate_metrics(rewards, 0.1).j_var_hat

    @pytest.mark.parametrize("state", [-1, 36])
    def test_potential_state_out_of_range(self, state):
        spec = WindStorageSpec()
        m = build(spec)
        with pytest.raises(ValidationError, match=rf"^state {state} out of range$"):
            estimate_potential(m, threshold_policy(spec), state)
