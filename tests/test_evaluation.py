"""Stationary distributions, metric computation, and the potential solve."""
import dataclasses
import itertools
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_reports_equal,
    model_policy_cases,
    outcome,
    random_mdp,
    threshold_policy,
)
from exact import exact_evaluation, exact_scores
import mvmdp.model
from mvmdp import (
    DeterministicPolicy,
    EvaluationError,
    MdpModel,
    MixedPolicy,
    RandomizedPolicy,
    ValidationError,
    WindStorageSpec,
    build,
    combined_metric,
    evaluate,
    improvement_vector,
    induced_chain,
    induced_chain_randomized,
    long_run_mean,
    multi_start,
    mv_cost_vector,
    policy_iteration,
    report_to_dict,
    sample_random_policy,
    solve_poisson,
    stationary_distribution,
    steady_state_variance,
)
from mvmdp import evaluation


class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        pi = stationary_distribution(P)
        assert pi == pytest.approx([0.8, 0.2])

    def test_fixed_point_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            P = rng.dirichlet(np.ones(4), size=4)
            pi = stationary_distribution(P)
            assert np.allclose(pi @ P, pi, atol=1e-10)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0)

    def test_unichain_with_transient_state(self):
        P = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert stationary_distribution(P) == pytest.approx([0.0, 1.0])

    def test_multichain_rejected(self):
        with pytest.raises(EvaluationError, match="not unique"):
            stationary_distribution(np.eye(2))

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValidationError):
            stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValidationError, match="transition row 0 sums to"):
            stationary_distribution(np.array([[0.5, bad], [0.5, 0.5]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError, match="^transition matrix has no states$"):
            stationary_distribution(np.zeros((0, 0)))


class TestMetrics:
    def test_long_run_mean(self):
        assert long_run_mean(np.array([0.25, 0.75]), np.array([4.0, 0.0])) == 1.0

    def test_variance_definition(self):
        pi = np.array([0.5, 0.5])
        r = np.array([1.0, -1.0])
        assert steady_state_variance(pi, r, 0.0) == pytest.approx(1.0)
        assert steady_state_variance(pi, r, long_run_mean(pi, r)) == pytest.approx(1.0)

    def test_variance_from_second_moment(self):
        pi = np.array([0.3, 0.7])
        r = np.array([2.0, 1.0])
        j = long_run_mean(pi, r)
        direct = steady_state_variance(pi, r, j)
        via_m2 = steady_state_variance(pi, r, j, second_moment=r**2)
        assert via_m2 == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("call", [
        long_run_mean,
        lambda pi, r: steady_state_variance(pi, r, 0.0),
    ], ids=["long_run_mean", "steady_state_variance"])
    def test_pi_and_r_lengths_are_checked(self, call):
        with pytest.raises(ValidationError, match=r"^length mismatch: pi has \(2,\), r has \(3,\)$"):
            call(np.array([0.5, 0.5]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("second_moment", [[1.0, 2.0, 3.0], [[1.0], [2.0]], [1.0]])
    def test_second_moment_shape_is_checked(self, second_moment):
        pi, r = np.array([0.5, 0.5]), np.array([1.0, 2.0])
        with pytest.raises(ValidationError, match="length mismatch: pi has .* second_moment has"):
            steady_state_variance(pi, r, 1.5, second_moment=second_moment)

    def test_stacked_second_moment_deviation_squares_as_a_float(self):
        # for this mean, a float's ** 2 (pow) and x * x differ in the last bit
        j = 0.3624182010806754
        r, m2 = np.array([[1.5, -0.25]]), np.array([[2.5, 0.5]])
        want = m2 - 2.0 * j * r + j**2
        got = evaluation._squared_deviation(r, np.array([[j]]), m2)
        assert got.tobytes() == want.tobytes()

    def test_combined_metric_identity_and_beta_check(self):
        assert combined_metric(2.0, 0.5, 0.1) == pytest.approx(1.95)
        with pytest.raises(ValidationError, match="beta"):
            combined_metric(1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda beta: combined_metric(1.0, 1.0, beta),
            lambda beta: mv_cost_vector([1.0], 0.5, beta),
        ],
        ids=["combined_metric", "mv_cost_vector"],
    )
    def test_beta_must_be_positive_and_finite(self, call):
        with pytest.raises(ValidationError, match=r"^beta must be finite, got inf$"):
            call(np.inf)
        for beta in (0.0, -1.0, -np.inf, np.nan):
            with pytest.raises(ValidationError, match=r"^beta must be > 0, got "):
                call(beta)

    def test_cost_vector(self):
        f = mv_cost_vector(np.array([1.0, 3.0]), 2.0, 0.5)
        assert f == pytest.approx([1.0 - 0.5, 3.0 - 0.5])


class TestPoisson:
    def test_pinned_at_state_zero(self):
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        f = np.array([1.0, -2.0])
        J = float(stationary_distribution(P) @ f)
        g = solve_poisson(P, f, J)
        assert g[0] == 0.0
        assert np.allclose(g, f - J + P @ g, atol=1e-8)

    def test_transient_pin_state_falls_back(self):
        P = np.array([[0.0, 1.0], [0.0, 1.0]])
        f = np.array([2.0, 1.0])
        g = solve_poisson(P, f, 1.0)
        assert g[0] == 0.0
        assert np.allclose(g, f - 1.0 + P @ g, atol=1e-8)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError, match="^transition matrix has no states$"):
            solve_poisson(np.zeros((0, 0)), [], 0.0)

    def test_cost_length_is_checked(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match=r"^cost length \(3,\) does not match P \(2, 2\)$"):
            solve_poisson(P, np.array([1.0, 0.0, 2.0]), 1.0)

    def test_inconsistent_average_rejected(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(EvaluationError, match="disagrees"):
            solve_poisson(P, np.array([1.0, 0.0]), 3.0)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e9])
    def test_average_off_by_a_millionth_of_the_cost_rejected(self, scale):
        # the consistency tolerance grows with max|f|, but stays far below
        # a millionth of it
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        f = scale * np.array([1.0, -2.0])
        J = float(stationary_distribution(P) @ f)
        assert solve_poisson(P, f, J)[0] == 0.0
        with pytest.raises(EvaluationError, match="disagrees"):
            solve_poisson(P, f, J + 1e-6 * scale * 2.0)

    def test_multichain_is_named_before_a_wrong_average(self):
        with pytest.raises(EvaluationError, match="^stationary distribution is not unique"):
            solve_poisson(np.eye(2), np.array([1.0, 2.0]), 100.0)

    def test_wrong_average_is_named_before_the_potential_solve(self):
        # state 0 is transient: the pinned system is singular or hides its
        # singularity, and a consistent average falls back and solves
        for closed in TRANSIENT_PIN_CHAINS:
            m = transient_pin_model(closed)
            P, r = induced_chain(m, DeterministicPolicy(np.zeros(3, dtype=int)))
            J = float(stationary_distribution(P) @ r)
            assert solve_poisson(P, r, J)[0] == 0.0
            with pytest.raises(EvaluationError, match=r"^supplied average 3\.0 disagrees with pi\.f by "):
                solve_poisson(P, r, 3.0)


class TestEvaluate:
    def test_single_state(self, single_state_model):
        rep = evaluate(single_state_model, DeterministicPolicy(np.array([0])))
        assert rep.j_mean == pytest.approx(3.0)
        assert rep.j_var == pytest.approx(0.0)
        assert rep.j_combined == pytest.approx(3.0)
        assert rep.potential == pytest.approx([0.0])

    def test_constant_reward_has_zero_variance(self):
        m = MdpModel(
            num_states=2,
            num_actions=1,
            feasible=((0,), (0,)),
            kernel=np.array([[[0.3, 0.7]], [[0.6, 0.4]]]),
            reward=np.array([[2.0], [2.0]]),
            beta=0.7,
        )
        rep = evaluate(m, DeterministicPolicy(np.zeros(2, dtype=int)))
        assert rep.j_var == pytest.approx(0.0, abs=1e-14)
        assert rep.j_combined == pytest.approx(rep.j_mean)
        assert np.allclose(rep.cost, 2.0)

    def test_two_state_hand_potential(self, two_state_hand_model):
        rep = evaluate(two_state_hand_model, DeterministicPolicy(np.zeros(2, dtype=int)))
        assert rep.j_mean == pytest.approx(0.5)
        assert rep.j_var == pytest.approx(0.25)
        assert rep.potential == pytest.approx([0.0, -1.0], abs=1e-10)

    def test_potential_decomposition(self):
        m = random_mdp(np.random.default_rng(21))
        d = sample_random_policy(m, np.random.default_rng(22))
        rep = evaluate(m, d)
        assert rep.potential == pytest.approx(
            rep.potential_mean - m.beta * rep.potential_var, abs=1e-8
        )
        assert rep.potential_mean[0] == 0.0
        assert rep.potential_var[0] == 0.0

    def test_one_hot_randomized_matches_deterministic(self):
        m = random_mdp(np.random.default_rng(31))
        d = sample_random_policy(m, np.random.default_rng(32))
        rd = evaluate(m, d)
        rt = evaluate(m, d.as_randomized(m))
        assert rt.j_mean == pytest.approx(rd.j_mean, abs=1e-12)
        assert rt.j_var == pytest.approx(rd.j_var, abs=1e-12)
        assert rt.potential == pytest.approx(rd.potential, abs=1e-8)

    def test_randomized_variance_mixes_per_action_quadratics(self):
        # one state, two actions with rewards +1/-1 mixed evenly: the
        # instantaneous reward still fluctuates, so variance must be 1,
        # not the 0 a mean-reward shortcut would give.
        m = MdpModel(
            num_states=1,
            num_actions=2,
            feasible=((0, 1),),
            kernel=np.ones((1, 2, 1)),
            reward=np.array([[1.0, -1.0]]),
            beta=0.25,
        )
        rep = evaluate(m, RandomizedPolicy(np.array([[0.5, 0.5]])))
        assert rep.j_mean == pytest.approx(0.0)
        assert rep.j_var == pytest.approx(1.0)
        assert rep.j_combined == pytest.approx(-0.25)

    def test_randomized_mixture_row_sums_are_checked(self):
        # every model row sums to 1 + 0.9e-12, within the model tolerance,
        # so deterministic chains evaluate; mixing them with theta rows of
        # the same sum gives chain rows ~1.8e-12 off, which must be rejected
        row = np.array([0.5, 0.5 + 0.9e-12])
        m = MdpModel(
            num_states=2,
            num_actions=2,
            feasible=((0, 1), (0, 1)),
            kernel=np.stack([np.stack([row, row[::-1]])] * 2),
            reward=np.array([[1.0, 0.0], [2.0, -1.0]]),
            beta=0.5,
        )
        for action in ([0, 0], [0, 1], [1, 0], [1, 1]):
            evaluate(m, DeterministicPolicy(np.array(action)))
        theta = RandomizedPolicy(np.stack([row, row]))
        theta.validate_for(m)
        with pytest.raises(ValidationError, match="transition row 0 sums to"):
            evaluate(m, theta)

    def test_frozen_battery_policy_is_rejected(self, wind_model, frozen_battery_policy):
        with pytest.raises(EvaluationError, match="not unique"):
            evaluate(wind_model, frozen_battery_policy)

    def test_report_to_dict_fields(self, single_state_model):
        rep = evaluate(single_state_model, DeterministicPolicy(np.array([0])))
        assert report_to_dict(rep)["pi"] == [1.0]
        rng = np.random.default_rng(12)
        m = random_mdp(rng)
        rep = evaluate(m, sample_random_policy(m, rng))
        d = report_to_dict(rep)
        # the keys and their order are part of the evaluate JSON's bytes
        assert list(d) == [
            "pi", "j_mean", "j_var", "j_combined", "cost",
            "potential", "potential_mean", "potential_var", "beta",
        ]
        for name, value in d.items():
            want = getattr(rep, name)
            if isinstance(want, np.ndarray):
                assert value == [float(x) for x in want]
                assert all(type(x) is float for x in value)
            else:
                assert value is want


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6))
def test_evaluation_identities(seed):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng)
    d = sample_random_policy(m, rng)
    rep = evaluate(m, d)
    assert rep.pi.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(rep.pi >= 0)
    assert rep.j_var >= 0.0
    assert rep.j_combined == pytest.approx(rep.j_mean - m.beta * rep.j_var, abs=1e-10)
    assert rep.potential[0] == 0.0
    # cost averages back to the combined metric
    assert float(rep.pi @ rep.cost) == pytest.approx(rep.j_combined, abs=1e-9)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_randomized_evaluation_identities(seed):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng)
    theta = RandomizedPolicy(
        0.9 * rng.dirichlet(np.ones(m.num_actions), size=m.num_states)
        + 0.1 / m.num_actions
    )
    rep = evaluate(m, theta)
    assert rep.j_var >= 0.0
    assert rep.j_combined == pytest.approx(rep.j_mean - m.beta * rep.j_var, abs=1e-10)
    assert rep.potential[0] == 0.0


def reference_potential(P, f, J, pi):
    """Per-potential solve as evaluate did it before it factored each matrix
    once: the pinned system, else the normalized one, each with its own
    np.linalg.solve. Also says whether the normalized system was used."""
    S = P.shape[0]

    def acceptable(g):
        residual = np.max(np.abs(g - (f - J) - P @ g))
        return residual <= max(1e-8, 1e-12 * np.max(np.abs(g)))

    M = np.eye(S) - P
    M[0, :] = 0.0
    M[0, 0] = 1.0
    b = f - J
    b[0] = 0.0
    try:
        g = np.linalg.solve(M, b)
        if acceptable(g):
            return g, False
    except np.linalg.LinAlgError:
        pass
    g = np.linalg.solve(np.eye(S) - P + np.outer(np.ones(S), pi), f - J)
    g = g - g[0]
    assert acceptable(g)
    return g, True


def reference_pi(P):
    """Stationary solve as evaluate did it before it built the balance matrix
    in column-major order: np.linalg.solve on P^T - I with its last row set
    to ones, then the round-off clamp."""
    S = P.shape[0]
    A = P.T - np.eye(S)
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    return np.where((pi < 0) & (pi > -1e-10), 0.0, pi)


def threshold_chains(battery, scenarios=(False, True)):
    """(model, policy) for every policy-iteration iterate from the threshold
    start at this battery capacity, with and without abandonment."""
    for abandonment in scenarios:
        spec = WindStorageSpec(battery_capacity=battery, beta=0.1, abandonment=abandonment)
        model = build(spec)
        _, trace = policy_iteration(model, threshold_policy(spec))
        for record in trace.iterations[:-1]:
            yield model, record.policy


def strided_identity_minus(P):
    """Reference I - P: 0.0 - P subtracted straight into a column-major
    array, then 1.0 - P[i, i] on the diagonal."""
    S = P.shape[0]
    M = np.empty((S, S), order="F")
    np.subtract(0.0, P, out=M)
    d = np.arange(S)
    M[d, d] = 1.0 - P[d, d]
    return M


def dense_policy_chain(model, policy):
    """The policy's chain as a dense matrix, from the public induced_chain*."""
    if isinstance(policy, DeterministicPolicy):
        return induced_chain(model, policy)[0]
    return induced_chain_randomized(model, policy)[0]


def uniform_theta(model):
    mask = model.feasible_mask()
    return RandomizedPolicy(mask / mask.sum(axis=1, keepdims=True))


def same_bits(got, want):
    """Equal floats with equal signs of zero, and got column-major."""
    return got.flags.f_contiguous and got.tobytes(order="F") == want.tobytes(order="F")


@pytest.mark.parametrize("battery", [5, 50, 200])
@pytest.mark.parametrize("abandonment", [False, True])
def test_identity_minus_has_the_reference_bits(battery, abandonment):
    """The I - P that the pinned and normalized Poisson matrices start from,
    built from the rows of the threshold policy's chain and of the uniform
    randomized chain, against the reference on the same dense chains."""
    spec = WindStorageSpec(battery_capacity=battery, abandonment=abandonment)
    model = build(spec)
    for policy in (threshold_policy(spec), uniform_theta(model)):
        chain = evaluation._policy_chain(model, policy)[0]
        got = evaluation._identity_minus_stack(chain)[0].T
        assert same_bits(got, strided_identity_minus(dense_policy_chain(model, policy)))


class TestPoissonReference:
    """evaluate reproduces the reference stationary and per-potential solves
    bit for bit."""

    def check(self, m, d):
        """Compares evaluate with the references; returns how many of the
        three potentials came from the normalized system."""
        rep = evaluate(m, d)
        P, r = induced_chain(m, d)
        pi = reference_pi(P)
        assert np.array_equal(stationary_distribution(P), pi)
        j_mean = long_run_mean(pi, r)
        j_var = steady_state_variance(pi, r, j_mean)
        j_comb = combined_metric(j_mean, j_var, m.beta)
        sq = (r - j_mean) ** 2
        cost = r - m.beta * sq
        assert np.array_equal(rep.pi, pi)
        assert (rep.j_mean, rep.j_var, rep.j_combined) == (j_mean, j_var, j_comb)
        assert np.array_equal(rep.cost, cost)
        normalized = 0
        for got, f, J in (
            (rep.potential, cost, j_comb),
            (rep.potential_mean, r, j_mean),
            (rep.potential_var, sq, j_var),
        ):
            want, fell_back = reference_potential(P, f, J, pi)
            assert np.array_equal(got, want)
            normalized += fell_back
        return normalized

    def test_evaluate_matches_per_potential_solves(self, wind_model, abandon_model_beta1):
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=70):
            self.check(m, d)

    def test_b50_threshold_iterates(self):
        # the threshold start itself needs the normalized system for at
        # least one potential in both scenarios
        assert sum(self.check(m, d) for m, d in threshold_chains(50)) >= 2

    def test_b200_threshold_chain(self):
        spec = WindStorageSpec(battery_capacity=200, beta=0.1)
        assert self.check(build(spec), threshold_policy(spec)) >= 1


TRANSIENT_PIN_CHAINS = [
    # the pinned system is exactly singular: the solve raises
    [[0.3, 0.7], [0.6, 0.4]],
    # round-off hides the singularity: the solve returns ~1e16
    # potentials that only the residual check rejects
    [[0.1, 0.9], [0.7, 0.3]],
]


def transient_pin_model(closed):
    """State 0 is transient, so every potential comes from the normalized
    system; `closed` is the chain on states 1 and 2."""
    kernel = np.zeros((3, 1, 3))
    kernel[0, 0] = [0.0, 0.5, 0.5]
    kernel[1:, 0, 1:] = closed
    return MdpModel(
        num_states=3,
        num_actions=1,
        feasible=((0,), (0,), (0,)),
        kernel=kernel,
        reward=np.array([[5.0], [1.0], [-2.0]]),
        beta=0.4,
    )


class TestStationaryReference:
    """stationary_distribution reproduces reference_pi bit for bit on inputs
    the case families above do not reach, and leaves its input unchanged."""

    def check(self, P):
        before = P.copy()
        assert np.array_equal(stationary_distribution(P), reference_pi(P))
        assert np.array_equal(P, before)

    def test_memory_layouts(self, wind_model, abandon_model_beta1):
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=72):
            P, _ = induced_chain(m, d)
            S = P.shape[0]
            strided = np.zeros((S, 2 * S))
            strided[:, ::2] = P
            for Q in (P, np.asfortranarray(P), strided[:, ::2]):
                self.check(Q)

    def test_single_state(self):
        self.check(np.array([[1.0]]))
        assert np.array_equal(stationary_distribution(np.array([[1.0]])), [1.0])

    @pytest.mark.parametrize("closed", TRANSIENT_PIN_CHAINS)
    def test_transient_pin_state(self, closed):
        m = transient_pin_model(closed)
        d = DeterministicPolicy(np.zeros(3, dtype=int))
        P, _ = induced_chain(m, d)
        self.check(P)
        assert np.array_equal(evaluate(m, d).pi, reference_pi(P))


class TestTransientPinState:
    @pytest.mark.parametrize("closed", TRANSIENT_PIN_CHAINS)
    def test_evaluate_falls_back_for_all_potentials(self, closed):
        m = transient_pin_model(closed)
        d = DeterministicPolicy(np.zeros(3, dtype=int))
        rep = evaluate(m, d)
        P, r = induced_chain(m, d)
        assert rep.pi[0] == pytest.approx(0.0, abs=1e-12)
        sq = (r - rep.j_mean) ** 2
        for g, f, J in (
            (rep.potential, rep.cost, rep.j_combined),
            (rep.potential_mean, r, rep.j_mean),
            (rep.potential_var, sq, rep.j_var),
        ):
            assert g[0] == 0.0
            assert np.max(np.abs(g - (f - J) - P @ g)) <= 1e-8
            # the normalized system gives the reference's floats
            want, fell_back = reference_potential(P, f, J, rep.pi)
            assert fell_back and np.array_equal(g, want)
        assert rep.potential == pytest.approx(
            rep.potential_mean - m.beta * rep.potential_var, abs=1e-8
        )


class CountingCalls:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def force_overlap(monkeypatch, overlap: bool) -> CountingCalls:
    """Make every evaluation factor the pinned matrix on a second thread, or
    none; returns the counted executor, one call per hand-off."""
    pool = CountingCalls(evaluation.ThreadPoolExecutor)
    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(evaluation, "OVERLAP_MIN_STATES", 0 if overlap else 10**9)
    monkeypatch.setattr(evaluation, "_idle_cpu", lambda: True)
    return pool


@pytest.mark.skipif(evaluation._LAPACK is None, reason="numpy exposes no dgesv/dgetrs")
class TestFactorOnce:
    def test_one_factorization_per_irreducible_chain(self, monkeypatch, wind_model):
        d = sample_random_policy(wind_model, np.random.default_rng(3))
        reference = evaluate(wind_model, d)
        solve = CountingCalls(np.linalg.solve)
        monkeypatch.setattr(np.linalg, "solve", solve)
        lapack = evaluation._LAPACK
        for overlap in (False, True):
            force_overlap(monkeypatch, overlap)
            gesv, getrs = map(CountingCalls, lapack[:2])
            monkeypatch.setattr(evaluation, "_LAPACK", (gesv, getrs, lapack[2]))
            assert_reports_equal(evaluate(wind_model, d), reference)
            # one factorization that also solves for pi, then one
            # factorization and three back-substitutions for the three
            # potentials
            assert (solve.calls, gesv.calls, getrs.calls) == (0, 2, 3)

    @pytest.mark.parametrize("missing", [OSError("no library"), AttributeError("no symbol")])
    def test_without_lapack_symbols_reports_are_the_same(self, monkeypatch, missing, wind_model):
        def cdll(path):
            raise missing

        cases = list(model_policy_cases([wind_model], seed=71, random_models=2))
        cases += list(threshold_chains(50, scenarios=(True,)))[:2]
        pin_state_policy = DeterministicPolicy(np.zeros(3, dtype=int))
        for closed in TRANSIENT_PIN_CHAINS:
            cases.append((transient_pin_model(closed), pin_state_policy))
        reports = [evaluate(m, d) for m, d in cases]
        monkeypatch.setattr(evaluation.ctypes, "CDLL", cdll)
        monkeypatch.setattr(evaluation, "_LAPACK", evaluation._numpy_lapack())
        assert evaluation._LAPACK is None
        for overlap in (False, True):
            pool = force_overlap(monkeypatch, overlap)
            for (m, d), want in zip(cases, reports):
                assert_reports_equal(evaluate(m, d), want)
            assert pool.calls == (len(cases) if overlap else 0)


class TestOverlap:
    """evaluate and solve_poisson give the same floats, or raise the same
    exception, whether a second thread factors the pinned matrix or the
    calling thread does; no thread outlives a call."""

    def run(self, monkeypatch, overlap, fn, *args, hand_offs=1):
        pool = force_overlap(monkeypatch, overlap)
        threads = threading.active_count()
        got = outcome(fn, *args)
        assert threading.active_count() == threads
        assert pool.calls == (hand_offs if overlap else 0)
        return got

    def check(self, monkeypatch, m, policy, hand_offs=1):
        inline = self.run(monkeypatch, False, evaluate, m, policy)
        overlap = self.run(monkeypatch, True, evaluate, m, policy, hand_offs=hand_offs)
        assert inline[0] == overlap[0]
        if inline[0] != "ok":
            assert inline[1] == overlap[1]
            return inline[0]
        assert_reports_equal(overlap[1], inline[1])
        if isinstance(policy, DeterministicPolicy):
            P, _ = induced_chain(m, policy)
            args = P, inline[1].cost, inline[1].j_combined
            g = self.run(monkeypatch, False, solve_poisson, *args)
            assert g[0] == "ok"
            assert np.array_equal(self.run(monkeypatch, True, solve_poisson, *args)[1], g[1])
        return "ok"

    def test_reports_are_the_same(self, monkeypatch, wind_model, abandon_model_beta1):
        cases = list(model_policy_cases([wind_model, abandon_model_beta1], seed=77))
        cases += list(threshold_chains(50))
        for m in (wind_model, abandon_model_beta1, random_mdp(np.random.default_rng(78))):
            mask = m.feasible_mask()
            cases.append((m, RandomizedPolicy(mask / mask.sum(axis=1, keepdims=True))))
        for closed in TRANSIENT_PIN_CHAINS:
            d = DeterministicPolicy(np.zeros(3, dtype=int))
            cases.append((transient_pin_model(closed), d))
        assert {self.check(monkeypatch, m, d) for m, d in cases} == {"ok"}

    @pytest.mark.parametrize(
        "cpus, blas_threads, idle", [(1, 1, False), (2, 1, True), (2, 2, False), (4, 2, True)]
    )
    def test_hand_off_only_to_an_idle_cpu(self, monkeypatch, cpus, blas_threads, idle):
        monkeypatch.setattr(
            evaluation.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        monkeypatch.setattr(evaluation, "_LAPACK", (None, None, lambda: blas_threads))
        assert evaluation._idle_cpu() is idle

    def test_wrong_average_raises_the_same_error(self, monkeypatch):
        """solve_poisson checks its average after the pinned stack is
        factored, on this thread or on the second, which has ended."""
        S = evaluation.OVERLAP_MIN_STATES
        P = np.random.default_rng(79).dirichlet(np.ones(S), size=S)
        f = np.linspace(-1.0, 1.0, S)
        J = float(stationary_distribution(P) @ f) + 1e-3
        inline = self.run(monkeypatch, False, solve_poisson, P, f, J)
        assert inline[0] == "EvaluationError"
        assert inline[1].startswith(f"supplied average {J!r} disagrees with pi.f by 1.000e-03")
        assert self.run(monkeypatch, True, solve_poisson, P, f, J) == inline

    def test_multichain_raises_the_same_error(
        self, monkeypatch, wind_model, frozen_battery_policy
    ):
        # the closed-class count fails before any matrix is built: no hand-off
        assert self.check(monkeypatch, wind_model, frozen_battery_policy, 0) == "EvaluationError"


class TestWithBeta:
    """evaluate at betas far from the model's own: an overflowing cost
    fails the potential's residual check, although the beta-free parts are
    fine."""

    def test_combined_potential_failure(self, wind_model, abandon_model_beta1):
        for m in (wind_model, abandon_model_beta1):
            kinds = set()
            with np.errstate(over="ignore", invalid="ignore"):
                for seed, beta in itertools.product((0, 76), (1e308, 1e300, 0.3)):
                    d = sample_random_policy(m, np.random.default_rng(seed))
                    kinds.add(outcome(evaluate, dataclasses.replace(m, beta=beta), d)[0])
            assert kinds == {"EvaluationError", "ok"}

    def test_overflowing_cost_error(self, wind_model):
        d = sample_random_policy(wind_model, np.random.default_rng(0))
        mb = dataclasses.replace(wind_model, beta=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert outcome(evaluate, mb, d) == (
                "EvaluationError", "potential residual nan is too large"
            )


LU = evaluation._LU


class CapturedSolvers:
    """Stands in for evaluation._LU and keeps a column-major copy of every
    matrix of each stack handed to it, before it is factored."""

    def __init__(self):
        self.matrices = []

    def __call__(self, stack, b):
        self.matrices += [matrix.T.copy(order="F") for matrix in stack]
        return LU(stack, b)


def reference_matrices(P, pi):
    """The balance, pinned and normalized matrices as the textbook
    expressions give them on the dense P."""
    S = P.shape[0]
    balance = P.T - np.eye(S)
    balance[-1, :] = 1.0
    pinned = np.eye(S) - P
    pinned[0, :] = 0.0
    pinned[0, 0] = 1.0
    return balance, pinned, np.eye(S) - P + np.outer(np.ones(S), pi)


def signed_zero_model(rng, S=7, A=3):
    """A model whose kernel holds -0.0 entries on and off the diagonal.
    Every row moves on to the next state with positive probability, so
    every policy's chain is irreducible."""
    kernel = rng.dirichlet(np.ones(S), size=(S, A)) * (rng.random((S, A, S)) < 0.4)
    states = np.arange(S)
    kernel[states, :, (states + 1) % S] += 0.5
    kernel /= kernel.sum(axis=2, keepdims=True)
    kernel[(kernel == 0) & (rng.random(kernel.shape) < 0.5)] = -0.0
    diagonal = kernel[states, :, states]
    kernel[states, :, states] = np.where(diagonal == 0, -0.0, diagonal)
    reward = rng.normal(size=(S, A))
    return MdpModel(S, A, tuple(tuple(range(A)) for _ in range(S)), kernel, reward, 0.4)


def signed_zeros(P):
    """(on the diagonal, off it): whether P holds a -0.0 there."""
    negative_zero = (P == 0) & np.signbit(P)
    diagonal = np.eye(P.shape[0], dtype=bool)
    return bool(negative_zero[diagonal].any()), bool(negative_zero[~diagonal].any())


class TestChainRowsKeepTheDenseBits:
    """evaluate, stationary_distribution and solve_poisson build every
    matrix they factor from the chain's rows; each has the floats, signs
    of zero included, of the textbook expression on the dense chain, and
    the reports equal the reference solves on it."""

    def captured(self, monkeypatch):
        force_overlap(monkeypatch, False)
        solvers = CapturedSolvers()
        monkeypatch.setattr(evaluation, "_LU", solvers)
        return solvers

    def check_evaluate(self, monkeypatch, m, policy):
        """Returns whether the normalized matrix was factored."""
        solvers = self.captured(monkeypatch)
        rep = evaluate(m, policy)
        P = dense_policy_chain(m, policy)
        want = reference_matrices(P, rep.pi)
        got = solvers.matrices
        assert len(got) in (2, 3)
        for g, w in zip(got, want):
            assert same_bits(g, w)
        check_reference_report(m, policy, rep)
        return len(got) == 3

    def test_wind_chains(self, monkeypatch, wind_model, abandon_model_beta1):
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=80):
            self.check_evaluate(monkeypatch, m, d)
        for m in (wind_model, abandon_model_beta1):
            self.check_evaluate(monkeypatch, m, uniform_theta(m))

    def test_normalized_fallback(self, monkeypatch):
        fell_back = [self.check_evaluate(monkeypatch, m, d) for m, d in threshold_chains(50)]
        for closed in TRANSIENT_PIN_CHAINS:
            d = DeterministicPolicy(np.zeros(3, dtype=int))
            fell_back.append(self.check_evaluate(monkeypatch, transient_pin_model(closed), d))
        assert sum(fell_back) >= 4

    def test_signed_zero_kernel(self, monkeypatch):
        rng = np.random.default_rng(81)
        for _ in range(4):
            m = signed_zero_model(rng)
            policies = [sample_random_policy(m, rng) for _ in range(3)]
            theta = rng.dirichlet(np.ones(m.num_actions), size=m.num_states)
            policies.append(RandomizedPolicy(theta))
            zeros = set()
            for policy in policies:
                chain = evaluation._policy_chain(m, policy)[0]
                P = dense_policy_chain(m, policy)
                assert np.array_equal(chain.values, P[chain.rows, chain.cols])
                assert np.signbit(chain.values).tolist() == np.signbit(P[chain.rows, chain.cols]).tolist()
                zeros.add(signed_zeros(P))
                self.check_evaluate(monkeypatch, m, policy)
            assert (True, True) in zeros

    def test_dense_inputs(self, monkeypatch):
        """stationary_distribution and solve_poisson convert a dense P of
        any layout, -0.0 entries included."""
        rng = np.random.default_rng(82)
        for _ in range(6):
            m = signed_zero_model(rng)
            P = dense_policy_chain(m, sample_random_policy(m, rng))
            assert signed_zeros(P) != (False, False)
            S = P.shape[0]
            strided = np.zeros((S, 2 * S))
            strided[:, ::2] = P
            f = rng.normal(size=S)
            for Q in (P, np.asfortranarray(P), strided[:, ::2]):
                solvers = self.captured(monkeypatch)
                pi = stationary_distribution(Q)
                assert np.array_equal(pi, reference_pi(P))
                J = float(pi @ f)
                g = solve_poisson(Q, f, J)
                want, fell_back = reference_potential(P, f, J, pi)
                assert np.array_equal(g, want) and not fell_back
                # stationary_distribution's balance matrix, then solve_poisson's
                balance, pinned, _ = reference_matrices(P, pi)
                assert len(solvers.matrices) == 3
                for M, want in zip(solvers.matrices, (balance, balance, pinned)):
                    assert same_bits(M, want)


def check_reference_report(m, policy, rep):
    """rep equals the reference stationary and per-potential solves on the
    policy's dense chain, bit for bit."""
    if isinstance(policy, DeterministicPolicy):
        P, r = induced_chain(m, policy)
        m2 = None
    else:
        P, r, m2 = induced_chain_randomized(m, policy)
    pi = reference_pi(P)
    assert np.array_equal(rep.pi, pi)
    sq = (r - rep.j_mean) ** 2 if m2 is None else m2 - 2.0 * rep.j_mean * r + rep.j_mean**2
    for got, f, J in (
        (rep.potential, rep.cost, rep.j_combined),
        (rep.potential_mean, r, rep.j_mean),
        (rep.potential_var, sq, rep.j_var),
    ):
        assert np.array_equal(got, reference_potential(P, f, J, pi)[0])


class TestEvaluationMemory:
    """evaluate holds at most two S x S matrices at once: the two it
    factors concurrently, or the pinned and the normalized one. No dense
    chain is built."""

    def test_peak_at_b200(self, monkeypatch):
        spec = WindStorageSpec(battery_capacity=200, beta=0.1)
        model = build(spec)
        start = threshold_policy(spec)
        fixed, _ = policy_iteration(model, start)
        S = model.num_states
        for policy, factorizations in ((start, 3), (fixed, 2)):
            # the model's tables are built on first use, outside the trace
            evaluate(model, policy)
            solvers = CountingCalls(LU)
            monkeypatch.setattr(evaluation, "_LU", solvers)
            tracemalloc.start()
            try:
                evaluate(model, policy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert solvers.calls == factorizations
            assert peak <= 2.1 * S * S * 8


SCALED_REWARDS = {
    "times 1e4": lambda r: r * 1e4,
    "times 1e6": lambda r: r * 1e6,
    "plus 1e7": lambda r: r + 1e7,
    "plus 1e9": lambda r: r + 1e9,
}


class TestScaledRewards:
    """The residual tolerance grows with the right-hand side, so models
    whose rewards are scaled or shifted evaluate, and their reports pass
    the improvement step's residual check."""

    @pytest.mark.parametrize("battery", [5, 50])
    @pytest.mark.parametrize("change", SCALED_REWARDS)
    def test_evaluates(self, battery, change):
        for abandonment in (False, True):
            spec = WindStorageSpec(battery_capacity=battery, beta=0.1, abandonment=abandonment)
            model = build(spec)
            start = threshold_policy(spec)
            fixed, _ = policy_iteration(model, start)
            scaled = dataclasses.replace(model, reward=SCALED_REWARDS[change](model.reward))
            for policy in (start, fixed):
                base, rep = evaluate(model, policy), evaluate(scaled, policy)
                assert rep.j_mean == pytest.approx(SCALED_REWARDS[change](base.j_mean), rel=1e-12)
                improvement_vector(scaled, rep, policy)


def one_action_model(P, reward, beta):
    """A one-action model whose only policy induces the chain P."""
    S = P.shape[0]
    return MdpModel(S, 1, ((0,),) * S, P[:, None, :], reward[:, None], beta)


class TestCancellingAverages:
    """evaluate computes its own averages, so it never rejects them as
    inconsistent with pi: on a model whose j_mean and beta * j_var cancel,
    j_combined is two roundings of one cancelling sum, and only the
    Poisson residual gate judges the potential."""

    ONE_POLICY = DeterministicPolicy(np.zeros(2, dtype=int))

    def test_residual_gate_judges_the_potential(self):
        q = 0.5000001
        P = np.array([[0.5, 0.5], [q, 1 - q]])
        m = one_action_model(P, np.array([1e9 + 0.5, 1e9 - 0.5]), 4e9)
        with pytest.raises(EvaluationError, match=r"^potential residual 5\.000e-08 is too large$"):
            evaluate(m, self.ONE_POLICY)

    def test_cancelling_report_is_accepted(self):
        P = np.array([
            [0.3589468646077373, 0.6410531353922627],
            [0.6410531330773206, 0.3589468669226794],
        ])
        r = np.array([6617319964.892892, 6617319956.492475])
        beta = 375094245.337722
        m = one_action_model(P, r, beta)
        rep = evaluate(m, self.ONE_POLICY)
        assert rep.j_combined == 0.0
        improvement_vector(m, rep, self.ONE_POLICY)
        # the exact j_combined of these floats is within one ulp of
        # beta * j_var, the float it is the difference of
        exact = exact_evaluation(P, r, beta)["j_combined"]
        assert 0 < exact < np.spacing(beta * rep.j_var)


def transient_entry_chain(rng, S, escape):
    """State 0 is transient and entered from nowhere; states 1..S-1 form an
    irreducible chain. escape is the probability of leaving state 0: 1.0
    spreads it over the other states, and 1e-17 keeps P[0, 0] at 1.0 in
    floats, so the balance matrix has a zero row and is exactly singular
    although the chain has one closed class."""
    P = np.zeros((S, S))
    P[1:, 1:] = rng.dirichlet(np.ones(S - 1), size=S - 1)
    if escape == 1.0:
        P[0, 1:] = 1.0 / (S - 1)
    else:
        P[0, 0], P[0, 1] = 1.0, escape
    return P


def batch_members(battery, rng):
    """(model, policy) of each member of a batch on the wind model's states
    at this battery capacity, in an order that mixes the kinds:
    irreducible, transient state 0 with a singular pinned system,
    multichain, singular balance matrix; deterministic and randomized."""
    beta = 0.3
    spec = WindStorageSpec(battery_capacity=battery, beta=beta)
    wind = build(spec)
    S = wind.num_states
    hold = DeterministicPolicy(np.full(S, 2))  # never moves the battery

    def synthetic(escape):
        P = transient_entry_chain(rng, S, escape)
        return one_action_model(P, rng.normal(size=S), beta), DeterministicPolicy(np.zeros(S, dtype=int))

    irreducible = [sample_random_policy(wind, rng) for _ in range(5)]
    return [
        (wind, irreducible[0]),
        synthetic(1.0),
        (wind, hold),
        (wind, uniform_theta(wind)),
        (wind, irreducible[1]),
        synthetic(1e-17),
        (wind, irreducible[2]),
        synthetic(1.0),
        (wind, threshold_policy(spec)),
        (wind, uniform_theta(wind)),
        (wind, irreducible[3]),
        (wind, hold),
        (wind, irreducible[4]),
        synthetic(1e-17),
    ]


def mixed_batch(members):
    """_evaluate_chains' arguments for the members as one batch: their
    chains' rows one after the other, their rewards and second-moment
    rows."""
    parts = [evaluation._policy_chain(model, policy) for model, policy in members]
    S = parts[0][0].size
    indptr = [np.zeros(1, dtype=np.int64)]
    for chain, _, _ in parts:
        indptr.append(chain.indptr[1:] + indptr[-1][-1])
    chain = evaluation._csr_chain(
        np.concatenate(indptr),
        np.concatenate([chain.cols.astype(np.int64) for chain, _, _ in parts]),
        np.concatenate([chain.values for chain, _, _ in parts]),
        S,
    )
    r = np.concatenate([part[1] for part in parts])
    m2 = [None if part[2] is None else part[2][0] for part in parts]
    return chain, r, m2


class TestMixedBatch:
    """Each member of a batch gets exactly the report, or the error, that
    evaluate gives it alone, whatever the other members are, on one BLAS
    thread or more, with or without the second thread."""

    @pytest.mark.parametrize("battery", [5, 20])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_members_match_evaluate_alone(self, monkeypatch, battery, overlap):
        members = batch_members(battery, np.random.default_rng(90 + battery))
        chain, r, m2 = mixed_batch(members)
        S = chain.size
        want = [outcome(evaluate, model, policy) for model, policy in members]
        pool = force_overlap(monkeypatch, overlap)
        got = evaluation._evaluate_chains(
            chain, r, m2, list(range(len(members))), [members[0][0].beta] * len(members)
        )
        for have, (kind, expected) in zip(got, want):
            if kind == "ok":
                assert isinstance(have, evaluation.EvaluationReport)
                assert_reports_equal(have, expected)
            else:
                assert (type(have).__name__, str(have)) == (kind, expected)
        assert {kind if kind == "ok" else message for kind, message in want} == {
            "ok",
            "stationary distribution is not unique: the chain has multiple closed "
            "communicating classes",
            "stationary solve failed: Singular matrix",
        }
        # the multichain members never reach the dense work
        live = [m for m, (_, message) in enumerate(want) if "not unique" not in str(message)]
        per_chunk = max(1, mvmdp.model._BLOCK_BYTES // (S * S * 8))
        chunks = -(-len(live) // per_chunk)
        assert chunks == (2 if battery == 20 else 1)
        assert pool.calls == (chunks if overlap else 0)
        # the transient-entry members that evaluate need the normalized system
        fell_back = 0
        for (model, policy), report in zip(members, got):
            if model.num_actions == 1 and isinstance(report, evaluation.EvaluationReport):
                P, _ = induced_chain(model, policy)
                fell_back += reference_potential(P, report.cost, report.j_combined, report.pi)[1]
        assert fell_back == 2

    @pytest.mark.parametrize("battery", [5, 20])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_members_at_several_betas_match_evaluate_alone(self, monkeypatch, battery, overlap):
        """Members that share a chain, each at its own beta, get what
        evaluate gives each alone at that beta, the failures and the
        normalized fall-back included; each chain is factored once."""
        rng = np.random.default_rng(95 + battery)
        members = batch_members(battery, rng)
        chain, r, m2 = mixed_batch(members)
        of = [m for _ in range(3) for m in rng.permutation(len(members)).tolist()]
        beta = rng.choice([0.05, 0.3, 1.7], size=len(of)).tolist()
        want = [
            outcome(evaluate, dataclasses.replace(members[m][0], beta=b), members[m][1])
            for m, b in zip(of, beta)
        ]
        slices = []
        stationary = evaluation._stationary

        def counting(chunk):
            slices.append((chunk.indptr.size - 1) // chunk.size)
            return stationary(chunk)

        monkeypatch.setattr(evaluation, "_stationary", counting)
        force_overlap(monkeypatch, overlap)
        got = evaluation._evaluate_chains(chain, r, m2, of, beta)
        for have, b, (kind, expected) in zip(got, beta, want):
            if kind == "ok":
                assert_reports_equal(have, expected)
                assert have.beta == b
            else:
                assert (type(have).__name__, str(have)) == (kind, expected)
        multichain = sum("not unique" in str(message) for _, message in want)
        assert sum(slices) == len(members) - multichain // 3
        assert len({b for b, (kind, _) in zip(beta, want) if kind == "ok"}) == 3

    @pytest.mark.parametrize("battery", [5, 20])
    def test_chains_in_another_order_match_evaluate_alone(self, battery):
        """Members that are every chain of the batch once, in reverse order
        and all passing, get what evaluate gives each alone: the Poisson
        gates and the fall-back read each member's own chain."""
        members = batch_members(battery, np.random.default_rng(90 + battery))
        want = [outcome(evaluate, model, policy) for model, policy in members]
        members = [member for member, (kind, _) in zip(members, want) if kind == "ok"]
        want = [expected for kind, expected in want if kind == "ok"]
        chain, r, m2 = mixed_batch(members)
        of = list(reversed(range(len(members))))
        got = evaluation._evaluate_chains(chain, r, m2, of, [members[m][0].beta for m in of])
        for have, m in zip(got, of):
            assert_reports_equal(have, want[m])


STATIONARY = evaluation._stationary


class TestStationaryGates:
    """The checks on a solved pi, on solves perturbed after the fact: the
    residual gate on pi P - pi, then the sign check, with round-off above
    -STATIONARY_TOL set to 0. The chain's state 0 is transient but nearly
    absorbing, so a change x in pi[0] moves pi P - pi by only ~1e-4 x."""

    def run(self, monkeypatch, shift):
        kernel = np.zeros((3, 1, 3))
        kernel[0, 0, :2] = [0.9999, 1e-4]
        kernel[1:, 0, 1:] = [[0.3, 0.7], [0.6, 0.4]]
        m = MdpModel(3, 1, ((0,),) * 3, kernel, np.array([[5.0], [1.0], [-2.0]]), 0.4)

        def perturbed(chain):
            pi, singular = STATIONARY(chain)
            pi[:, 0] += shift
            return pi, singular

        monkeypatch.setattr(evaluation, "_stationary", perturbed)
        return outcome(evaluate, m, DeterministicPolicy(np.zeros(3, dtype=int)))

    def test_round_off_is_set_to_zero(self, monkeypatch):
        kind, report = self.run(monkeypatch, -5e-11)
        assert kind == "ok" and report.pi[0] == 0.0 and not np.signbit(report.pi[0])

    def test_negative_probability(self, monkeypatch):
        assert self.run(monkeypatch, -2e-10) == (
            "EvaluationError", "stationary solve produced a negative probability"
        )

    def test_residual_comes_before_the_sign(self, monkeypatch):
        for shift in (1e-3, -1e-3):
            kind, message = self.run(monkeypatch, shift)
            assert kind == "EvaluationError"
            assert re.fullmatch(r"stationary solve residual 1\.\d{3}e-07 exceeds 1e-10", message)


EPS = np.finfo(float).eps


def transient_start_mdp(rng, max_states=10):
    """A random_mdp of up to `max_states` states that no state enters state
    0 in: state 0 is transient under every policy."""
    m = random_mdp(rng, max_states=max_states)
    kernel = m.kernel.copy()
    kernel[:, :, 0] = 0.0
    kernel /= kernel.sum(axis=2, keepdims=True)
    return MdpModel(m.num_states, m.num_actions, m.feasible, kernel, m.reward, m.beta)


def nearly_absorbing_mdp(rng, max_states=10):
    """A random_mdp of up to `max_states` states whose last state keeps
    itself with probability 1 - 1e-6 under every action, and leaves with the
    other 1e-6 spread as random_mdp drew it."""
    m = random_mdp(rng, max_states=max_states)
    kernel = m.kernel.copy()
    kernel[-1, :, -1] = 0.0
    kernel[-1] *= 1e-6 / kernel[-1].sum(axis=1, keepdims=True)
    kernel[-1, :, -1] = 1.0 - 1e-6
    return MdpModel(m.num_states, m.num_actions, m.feasible, kernel, m.reward, m.beta)


class TestExactOracle:
    """evaluate against the exact rational evaluation (tests/exact.py) of
    the same float chain, rewards and beta.

    Errors are taken relative to max(1, max |exact value|) per field.
    Measured on 40 seeded random_mdp cases (S from 2 to 10, every fourth
    with a transient state 0) and on both B=5 wind models at the threshold
    policy and the PI optimum, on one BLAS thread: at most 0.9 eps for pi,
    2.7 eps for j_mean, j_var and j_combined, and 35 eps for the potentials
    (potential_var of the B=5 threshold chains; eps = 2**-52). The bounds
    below leave a factor of about 4 over those.

    improvement_vector is compared with the exact score table
    (`exact_scores`) on the same cases, relative to max(1, max |exact
    score|), against a bound of eps times the holding time (`holding_time`,
    from 1.0 to 9.3 on those cases): at most 3.7 eps times it (13.8 eps,
    the B=5 abandonment threshold chain). On 40 nearly absorbing chains
    (`nearly_absorbing_mdp`, holding time 1e6) the potentials and scores
    lose up to 2.6e6 eps, 2.6 eps times the holding time, and pi, j_mean,
    j_var and j_combined up to 16, 14, 71 and 57 eps, beyond the fixed
    bounds. SCORE_BOUND leaves a factor of about 4 over 3.7."""

    BOUNDS = {"pi": 4 * EPS, "j_mean": 16 * EPS, "j_var": 16 * EPS, "j_combined": 16 * EPS,
              "potential": 128 * EPS, "potential_mean": 128 * EPS, "potential_var": 128 * EPS}

    SCORE_BOUND = 16 * EPS  # times the policy's `holding_time`

    @staticmethod
    def error(got, want) -> float:
        """max |got - want| over the entries, relative to max(1, max
        |want|): the floats `got` against the Fractions `want`."""
        want = list(np.atleast_1d(np.array(want, dtype=object)))
        got = np.atleast_1d(got).tolist()
        return max(abs(Fraction(g) - w) for g, w in zip(got, want)) / max(1, *map(abs, want))

    @staticmethod
    def holding_time(model, policy) -> float:
        """The condition estimate of the score bound: 1 / min_i (1 - P_ii)
        over the states the policy's chain leaves, the longest expected stay
        in one of them."""
        P, _ = induced_chain(model, policy)
        exits = 1.0 - np.diag(P)
        return 1.0 / float(exits[exits > 0].min())

    @classmethod
    def check(cls, model, policy, bounds=None):
        P, r = induced_chain(model, policy)
        exact = exact_evaluation(P, r, model.beta)
        report = evaluate(model, policy)
        for name, bound in (bounds or cls.BOUNDS).items():
            error = cls.error(getattr(report, name), exact[name])
            assert error <= bound, (name, float(error) / EPS)
        return exact, report

    @classmethod
    def check_scores(cls, model, policy, exact, report) -> float:
        """improvement_vector against the exact score table: NaN off the
        feasible pairs, and within SCORE_BOUND times the holding time on
        them. Returns the error."""
        score = improvement_vector(model, report, policy).score
        want = exact_scores(model, exact)
        assert np.isnan(score[~model.feasible_mask()]).all()
        error = cls.error([score[pair] for pair in want], list(want.values()))
        assert error <= cls.SCORE_BOUND * cls.holding_time(model, policy), float(error) / EPS
        return error

    def test_random_models(self):
        rng = np.random.default_rng(110)
        for _ in range(12):
            m = random_mdp(rng, max_states=10)
            policy = sample_random_policy(m, rng)
            self.check_scores(m, policy, *self.check(m, policy))

    def test_transient_state_0(self):
        rng = np.random.default_rng(111)
        m = transient_start_mdp(rng)
        policy = sample_random_policy(m, rng, require_irreducible=False)
        exact, report = self.check(m, policy)
        assert exact["pi"][0] == 0 and report.pi[0] == 0.0
        self.check_scores(m, policy, exact, report)

    @pytest.mark.parametrize("abandonment", [False, True])
    def test_wind_b5(self, abandonment):
        spec = WindStorageSpec(beta=1.0 if abandonment else 0.1, abandonment=abandonment)
        m = build(spec)
        start = threshold_policy(spec)
        optimum, _ = policy_iteration(m, start)
        assert optimum != start
        for policy in (start, optimum):
            self.check_scores(m, policy, *self.check(m, policy))

    def test_nearly_absorbing_state(self):
        """The float rows sum to 1 only within an ulp or so, and against a
        state's exit mass of 1e-6 that is a relative change of about 1e-10:
        the potentials and scores lose about that much, far more than the
        fixed bounds allow, and every field stays within the holding-time
        bound."""
        rng = np.random.default_rng(112)
        m = nearly_absorbing_mdp(rng)
        policy = sample_random_policy(m, rng)
        bound = self.SCORE_BOUND * self.holding_time(m, policy)
        exact, report = self.check(m, policy, dict.fromkeys(self.BOUNDS, bound))
        assert self.error(report.potential, exact["potential"]) > self.BOUNDS["potential"]
        assert self.check_scores(m, policy, exact, report) > self.BOUNDS["potential"]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["irreducible", "transient", "absorbing"]))
    def test_drawn_models(self, seed, kind):
        """Models of up to 12 states, drawn as random_mdp draws them, some
        with a transient state 0 and some with a nearly absorbing state,
        against the fixed bounds times the holding time. A drawn chain may
        hold a state long by chance: seed 7506 draws S=2 with a holding
        time of 682, and potential_mean 187 eps off, beyond the fixed
        bound. Measured first, relative as above: on 1000 seeds of each
        kind at most 1.7 eps for pi, 7.9 eps for the three J and 56 eps for
        the potentials on the first two kinds, and 6.0 eps times the
        holding time for the potentials on the third; on 10,000 more seeds
        of the first kind at most 0.36 of the scaled bound (j_combined)."""
        rng = np.random.default_rng(seed)
        if kind == "irreducible":
            m = random_mdp(rng, max_states=12)
        elif kind == "transient":
            m = transient_start_mdp(rng, max_states=12)
        else:
            m = nearly_absorbing_mdp(rng, max_states=12)
        policy = sample_random_policy(m, rng, require_irreducible=kind != "transient")
        scale = self.holding_time(m, policy)
        self.check(m, policy, {name: bound * scale for name, bound in self.BOUNDS.items()})

    @pytest.mark.parametrize("abandonment", [False, True])
    def test_multi_start_ends(self, abandonment):
        """Every start of multi_start(model, 10, seed) for seeds 0-3 on the
        B=5 wind models ends at a policy whose final j_combined is the exact
        one of that policy within the fixed bound. Measured: all 40 starts
        of each model end at one policy, within 1.6 eps of its exact value."""
        m = build(WindStorageSpec(abandonment=abandonment))
        exact = {}
        for seed in range(4):
            for trace in multi_start(m, 10, seed=seed).traces:
                last = trace.iterations[-1]
                if last.policy not in exact:
                    P, r = induced_chain(m, last.policy)
                    exact[last.policy] = exact_evaluation(P, r, m.beta)["j_combined"]
                error = self.error(last.j_combined, exact[last.policy])
                assert error <= self.BOUNDS["j_combined"], float(error) / EPS


class TestErrorPaths:
    def test_lu_takes_c_order_stacks_only(self):
        with pytest.raises(ValueError, match=re.escape("need C-order float64 (c, S, S) and (c, S) arrays, got (1, 2, 2)")):
            evaluation._LU(np.zeros((1, 2, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match=re.escape("got (1, 2, 2)")):
            evaluation._LU(np.zeros((1, 2, 2), order="F"), np.zeros((1, 2)))
        lu = evaluation._LU(np.eye(2)[None].copy(), np.zeros((1, 2)))
        with pytest.raises(ValueError, match=re.escape("need a C-order float64 (1, S) array, got (1, 3)")):
            lu.solve([0], np.zeros((1, 3)))
        with pytest.raises(ValueError, match=re.escape("need a C-order float64 (2, S) array, got (1, 2)")):
            lu.solve([0, 0], np.zeros((1, 2)))

    @pytest.mark.parametrize("closed", TRANSIENT_PIN_CHAINS)
    def test_singular_normalized_matrix(self, monkeypatch, closed):
        """State 0 is transient, so every potential falls back to the
        normalized system; a singular normalized factor fails it."""
        m = transient_pin_model(closed)
        d = DeterministicPolicy(np.zeros(3, dtype=int))
        evaluate(m, d)

        def singular(chain, member, pi):
            return evaluation._LU(np.zeros((1, chain.size, chain.size)), np.zeros((1, chain.size)))

        monkeypatch.setattr(evaluation, "_normalized", singular)
        with pytest.raises(EvaluationError, match=r"^potential solve failed: Singular matrix$"):
            evaluate(m, d)

    def test_mixed_policy_is_not_evaluated(self, wind_model, wind_spec):
        d = threshold_policy(wind_spec)
        with pytest.raises(ValidationError, match=r"^cannot evaluate policy of type MixedPolicy$"):
            evaluate(wind_model, MixedPolicy(d, d, 0.5))
