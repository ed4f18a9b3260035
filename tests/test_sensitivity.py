"""Improvement scores, the exact difference formula, and derivatives."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_policy_cases, outcome, random_mdp, restrict_feasible, threshold_policy
from mvmdp import (
    DeterministicPolicy,
    RandomizedPolicy,
    ValidationError,
    WindStorageSpec,
    build,
    check_necessary_condition,
    derivative_mixed,
    derivative_randomized,
    evaluate,
    improvement_vector,
    induced_chain,
    policy_iteration,
    predicted_difference,
    sample_random_policy,
)


def model_and_policies(seed):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng)
    base = sample_random_policy(m, rng)
    alt = sample_random_policy(m, rng)
    return m, base, alt


class TestImprovementVector:
    def test_infeasible_entries_are_nan(self):
        rng = np.random.default_rng(1)
        m = random_mdp(rng)
        m = dataclasses.replace(m, feasible=((0,),) + m.feasible[1:])
        d = sample_random_policy(m, rng)
        rep = evaluate(m, d)
        iv = improvement_vector(m, rep, d)
        assert np.all(np.isnan(iv.score[0, 1:]))
        assert np.isfinite(iv.score[0, 0])

    def test_current_score_picks_policy_action(self):
        m, d, _ = model_and_policies(2)
        rep = evaluate(m, d)
        iv = improvement_vector(m, rep, d)
        expect = iv.score[np.arange(m.num_states), d.action]
        assert np.array_equal(iv.current_score, expect)

    def test_stale_report_rejected(self):
        m, d, alt = model_and_policies(3)
        if alt == d:
            alt = DeterministicPolicy((d.action + 1) % m.num_actions)
        rep_other = evaluate(m, alt)
        with pytest.raises(ValidationError, match="does not match"):
            improvement_vector(m, rep_other, d)

    def test_scores_shift_with_potential_constant(self):
        m, d, _ = model_and_policies(4)
        rep = evaluate(m, d)
        iv = improvement_vector(m, rep, d)
        shifted = dataclasses.replace(rep, potential=rep.potential + 12.5)
        iv2 = improvement_vector(m, shifted, d)
        assert np.allclose(iv2.score - iv.score, 12.5, equal_nan=True) or np.allclose(
            (iv2.score - iv.score)[~np.isnan(iv.score)], 12.5
        )


class TestDifferenceFormula:
    def test_self_difference_is_zero(self):
        m, d, _ = model_and_policies(5)
        rep = evaluate(m, d)
        bd = predicted_difference(m, d, rep, d)
        assert bd.total == pytest.approx(0.0, abs=1e-12)
        assert bd.direct == pytest.approx(0.0, abs=1e-12)

    def test_square_part_nonnegative_and_exact(self):
        for seed in range(25):
            m, base, alt = model_and_policies(100 + seed)
            rep = evaluate(m, base)
            bd = predicted_difference(m, base, rep, alt)
            assert bd.square_part >= 0.0
            assert bd.total == pytest.approx(bd.linear_part + bd.square_part)
            assert bd.total == pytest.approx(bd.direct, abs=1e-8)

    def test_square_part_value(self):
        m, base, alt = model_and_policies(6)
        rep = evaluate(m, base)
        rep_alt = evaluate(m, alt)
        bd = predicted_difference(m, base, rep, alt)
        assert bd.square_part == pytest.approx(
            m.beta * (rep_alt.j_mean - rep.j_mean) ** 2, abs=1e-12
        )


class TestNecessaryCondition:
    def test_detects_planted_improvement(self):
        m, d, _ = model_and_policies(7)
        pol, _ = policy_iteration(m, d)
        rep = evaluate(m, pol)
        assert check_necessary_condition(m, rep, pol) == []

    def test_reports_margins_sorted_by_state(self):
        rng = np.random.default_rng(8)
        m = random_mdp(rng)
        d = sample_random_policy(m, rng)
        rep = evaluate(m, d)
        iv = improvement_vector(m, rep, d)
        expected = sum(
            1
            for i, acts in enumerate(m.feasible)
            for a in acts
            if iv.score[i, a] - iv.current_score[i] > 1e-9
        )
        got = check_necessary_condition(m, rep, d)
        assert len(got) == expected
        for i, a, margin in got:
            assert margin > 0
            assert iv.score[i, a] - iv.current_score[i] == pytest.approx(margin)


class TestDerivatives:
    def test_toward_itself_is_zero(self):
        m, d, _ = model_and_policies(9)
        rep = evaluate(m, d)
        assert derivative_mixed(m, d, rep, d) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_equals_directional_randomized(self):
        for seed in range(10):
            m, base, alt = model_and_policies(200 + seed)
            rep = evaluate(m, base)
            dm = derivative_mixed(m, base, rep, alt)
            tb = base.as_randomized(m)
            grad = derivative_randomized(m, tb, evaluate(m, tb))
            delta = alt.as_randomized(m).theta - tb.theta
            assert dm == pytest.approx(float(np.nansum(grad * delta)), abs=1e-9)

    def test_gradient_nan_pattern_and_scale(self):
        rng = np.random.default_rng(10)
        m = random_mdp(rng)
        m = dataclasses.replace(m, feasible=((0,),) + m.feasible[1:])
        theta_rows = 0.8 * rng.dirichlet(np.ones(m.num_actions), size=m.num_states) + 0.2 / m.num_actions
        theta_rows[0] = 0.0
        theta_rows[0, 0] = 1.0
        theta = RandomizedPolicy(theta_rows)
        rep = evaluate(m, theta)
        grad = derivative_randomized(m, theta, rep)
        assert np.all(np.isnan(grad[0, 1:]))
        # each row carries its stationary weight as a common factor
        pg = m.kernel @ rep.potential
        i = 1
        for a in m.feasible[i]:
            r = m.reward[i, a]
            bracket = pg[i, a] + r - m.beta * r**2 + 2 * m.beta * rep.j_mean * r
            assert grad[i, a] == pytest.approx(rep.pi[i] * bracket, abs=1e-10)

    def test_shift_invariance_of_derivatives_and_argmax(self):
        m, base, alt = model_and_policies(11)
        rep = evaluate(m, base)
        shifted = dataclasses.replace(rep, potential=rep.potential - 7.25)
        dm = derivative_mixed(m, base, rep, alt)
        dm2 = derivative_mixed(m, base, shifted, alt)
        assert dm2 == pytest.approx(dm, abs=1e-9)
        iv = improvement_vector(m, rep, base)
        iv2 = improvement_vector(m, shifted, base)
        a1 = np.nanargmax(iv.score, axis=1)
        a2 = np.nanargmax(iv2.score, axis=1)
        assert np.array_equal(a1, a2)


def loop_scores(model, report):
    """Per-state loop reference for improvement_vector's scores."""
    score = np.full((model.num_states, model.num_actions), np.nan)
    pg = model.kernel @ report.potential
    for i, acts in enumerate(model.feasible):
        acts = list(acts)
        r = model.reward[i, acts]
        score[i, acts] = r - model.beta * (r - report.j_mean) ** 2 + pg[i, acts]
    return score


def loop_violations(model, iv, tol=1e-9):
    """Per-pair loop reference for check_necessary_condition."""
    violations = []
    for i, acts in enumerate(model.feasible):
        for a in acts:
            margin = iv.score[i, a] - iv.current_score[i]
            if margin > tol:
                violations.append((i, a, float(margin)))
    return violations


def loop_gradient(model, report):
    """Per-state loop reference for derivative_randomized."""
    pi, g, j_mean, beta = report.pi, report.potential, report.j_mean, model.beta
    grad = np.full((model.num_states, model.num_actions), np.nan)
    pg = model.kernel @ g
    for i, acts in enumerate(model.feasible):
        acts = list(acts)
        r = model.reward[i, acts]
        grad[i, acts] = pi[i] * (pg[i, acts] + r - beta * r**2 + 2.0 * beta * j_mean * r)
    return grad


class TestLoopReference:
    """The masked whole-array forms reproduce the per-state loops bit for bit."""

    def test_scores_and_violations(self, wind_model, abandon_model_beta1):
        violated = 0
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=50):
            rep = evaluate(m, d)
            iv = improvement_vector(m, rep, d)
            assert np.array_equal(iv.score, loop_scores(m, rep), equal_nan=True)
            want = loop_violations(m, iv)
            assert check_necessary_condition(m, rep, d) == want
            violated += bool(want)
        assert violated > 0

    def test_report_at_another_beta_is_scored_at_model_beta(self, wind_model, abandon_model_beta1):
        """The public functions score at model.beta whatever beta the report
        was evaluated at (the solvers score at the report's own beta)."""
        rng = np.random.default_rng(55)
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=56):
            other = dataclasses.replace(m, beta=7.0 * m.beta + 0.5)
            rep = evaluate(other, d)
            iv = improvement_vector(m, rep, d)
            assert np.array_equal(iv.score, loop_scores(m, rep), equal_nan=True)
            assert not np.array_equal(iv.score, loop_scores(other, rep), equal_nan=True)
            assert check_necessary_condition(m, rep, d) == loop_violations(m, iv)
            w = np.where(m.feasible_mask(), rng.uniform(0.1, 1.0, size=iv.score.shape), 0.0)
            theta = RandomizedPolicy(w / w.sum(axis=1, keepdims=True))
            rep = evaluate(other, theta)
            got = derivative_randomized(m, theta, rep)
            assert np.array_equal(got, loop_gradient(m, rep), equal_nan=True)
            assert not np.array_equal(got, loop_gradient(other, rep), equal_nan=True)

    def test_gradient(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(51)
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=52):
            w = rng.uniform(0.1, 1.0, size=(m.num_states, m.num_actions))
            w = np.where(m.feasible_mask(), w, 0.0)
            for theta in (RandomizedPolicy(w / w.sum(axis=1, keepdims=True)), d.as_randomized(m)):
                rep = evaluate(m, theta)
                got = derivative_randomized(m, theta, rep)
                assert np.array_equal(got, loop_gradient(m, rep), equal_nan=True)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_difference_formula_is_exact(seed):
    m, base, alt = model_and_policies(seed)
    rep = evaluate(m, base)
    bd = predicted_difference(m, base, rep, alt)
    assert abs(bd.total - bd.direct) <= 1e-8
    assert bd.square_part >= 0.0


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_derivative_sign_predicts_small_step(seed):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng)
    base = sample_random_policy(m, rng)
    alt = sample_random_policy(m, rng)
    rep = evaluate(m, base)
    dm = derivative_mixed(m, base, rep, alt)
    if abs(dm) < 1e-6:
        return
    h = 1e-7
    tb = base.as_randomized(m).theta
    ta = alt.as_randomized(m).theta
    jh = evaluate(m, RandomizedPolicy(tb + h * (ta - tb))).j_combined
    assert np.sign(jh - rep.j_combined) == np.sign(dm)


def other_model(rng, model):
    """A model with the same shape and feasible sets but a fresh kernel and
    fresh rewards."""
    S, A = model.num_states, model.num_actions
    return dataclasses.replace(
        model,
        kernel=rng.dirichlet(np.ones(S), size=(S, A)),
        reward=rng.normal(0.0, 1.0, size=(S, A)),
    )


def interior_theta(rng, model):
    """Randomized policy with positive mass on every feasible action."""
    w = np.where(model.feasible_mask(), rng.uniform(0.1, 1.0, size=model.reward.shape), 0.0)
    return RandomizedPolicy(w / w.sum(axis=1, keepdims=True))


class TestReportMismatch:
    """Every function that takes a report rejects one evaluated for another
    model or another policy."""

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            m = random_mdp(rng)
            for model in (m, restrict_feasible(rng, m)):
                yield rng, model, other_model(rng, model)

    def test_report_of_other_model_rejected(self):
        for rng, m, other in self.cases(60):
            base = sample_random_policy(m, rng)
            alt = sample_random_policy(m, rng)
            rep = evaluate(other, base)
            with pytest.raises(ValidationError, match="does not match"):
                improvement_vector(m, rep, base)
            with pytest.raises(ValidationError, match="does not match"):
                derivative_mixed(m, base, rep, alt)
            with pytest.raises(ValidationError, match="does not match"):
                predicted_difference(m, base, rep, alt)
            theta = interior_theta(rng, m)
            with pytest.raises(ValidationError, match="does not match"):
                derivative_randomized(m, theta, evaluate(other, theta))

    @pytest.mark.parametrize(
        "change", [lambda r: r, lambda r: r * 1e6, lambda r: r + 1e9], ids=["plain", "times 1e6", "plus 1e9"]
    )
    def test_report_of_other_wind_policy_rejected(self, change):
        # the residual tolerance grows with the rewards, but a report of
        # the next policy-iteration iterate still fails it
        checked = 0
        for abandonment in (False, True):
            spec = WindStorageSpec(beta=0.1, abandonment=abandonment)
            model = build(spec)
            _, trace = policy_iteration(model, threshold_policy(spec))
            scaled = dataclasses.replace(model, reward=change(model.reward))
            policies = [record.policy for record in trace.iterations]
            for policy, other in zip(policies, policies[1:]):
                if policy == other:
                    continue
                improvement_vector(scaled, evaluate(scaled, policy), policy)
                with pytest.raises(ValidationError, match="does not match"):
                    improvement_vector(scaled, evaluate(scaled, other), policy)
                checked += 1
        assert checked >= 4

    def test_randomized_report_of_other_theta_rejected(self):
        for rng, m, _ in self.cases(61):
            theta, other_theta = interior_theta(rng, m), interior_theta(rng, m)
            with pytest.raises(ValidationError, match="does not match"):
                derivative_randomized(m, theta, evaluate(m, other_theta))


# (call, bad policy, exception class, message): every public function that
# takes a policy checks it as validate_for does, before it reads a report;
# each call gets (model, good policy, its report, bad policy)
WIND_POLICY_CALLS = {
    "evaluate": lambda m, good, rep, bad: evaluate(m, bad),
    "improvement_vector": lambda m, good, rep, bad: improvement_vector(m, rep, bad),
    "check_necessary_condition": lambda m, good, rep, bad: check_necessary_condition(m, rep, bad),
    "predicted_difference base": lambda m, good, rep, bad: predicted_difference(m, bad, rep, good),
    "predicted_difference new": lambda m, good, rep, bad: predicted_difference(m, good, rep, bad),
    "derivative_mixed base": lambda m, good, rep, bad: derivative_mixed(m, bad, rep, good),
    "derivative_mixed alt": lambda m, good, rep, bad: derivative_mixed(m, good, rep, bad),
}
WIND_THETA_CALLS = {
    "evaluate": lambda m, good, rep, bad: evaluate(m, bad),
    "derivative_randomized": lambda m, good, rep, bad: derivative_randomized(m, bad, rep),
}
BAD_POLICY_CASES = [
    (call, False, bad, kind, message)
    for call in WIND_POLICY_CALLS
    for bad, kind, message in [
        (DeterministicPolicy(np.full(36, 4)), "FeasibilityError", "action 4 is infeasible at state 0"),
        (DeterministicPolicy(np.zeros(3, dtype=int)), "ValidationError", "policy has 3 states, model has 36"),
    ]
] + [
    (call, True, bad, kind, message)
    for call in WIND_THETA_CALLS
    for bad, kind, message in [
        (RandomizedPolicy(np.full((36, 5), 0.2)), "FeasibilityError",
         "theta puts mass on infeasible action 0 at state 0"),
        (RandomizedPolicy(np.full((3, 5), 0.2)), "ValidationError", "theta shape (3, 5) != (36, 5)"),
    ]
]


@pytest.mark.parametrize("call, randomized, bad, kind, message", BAD_POLICY_CASES)
def test_public_functions_check_the_policy(wind_model, call, randomized, bad, kind, message):
    good = sample_random_policy(wind_model, np.random.default_rng(0))
    calls = WIND_POLICY_CALLS
    if randomized:
        good, calls = good.as_randomized(wind_model), WIND_THETA_CALLS
    assert outcome(bad.validate_for, wind_model) == (kind, message)
    got = outcome(calls[call], wind_model, good, evaluate(wind_model, good), bad)
    assert got == (kind, message)


def reference_bracket(model, base, report, other):
    """The difference-formula bracket written out on the induced chains,
    (P' - P) g + f'(J) - f(J), as derivative_mixed and predicted_difference
    computed it before they read it off the improvement scores."""
    P, r = induced_chain(model, base)
    Po, ro = induced_chain(model, other)
    j_mean, g, beta = report.j_mean, report.potential, model.beta
    return (Po - P) @ g + ro - beta * (ro - j_mean) ** 2 - r + beta * (r - j_mean) ** 2


class TestBracketReference:
    def test_mixed_and_difference_match_chain_bracket(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(62)
        for m, base in model_policy_cases([wind_model, abandon_model_beta1], seed=63):
            alt = sample_random_policy(m, rng)
            rep = evaluate(m, base)
            bracket = reference_bracket(m, base, rep, alt)
            dm = derivative_mixed(m, base, rep, alt)
            assert abs(dm - float(rep.pi @ bracket)) <= 1e-12
            bd = predicted_difference(m, base, rep, alt)
            assert abs(bd.linear_part - float(evaluate(m, alt).pi @ bracket)) <= 1e-12


def test_score_table_product_is_the_dense_product(wind_case):
    """kernel @ g, taken over dense kernel blocks, has the bits of the
    product over the dense reference kernel at B = 5, 50 and 200 in both
    scenarios; so do the scores built on it."""
    from mvmdp.sensitivity import _score_table

    spec, model, dense = wind_case
    policy = threshold_policy(spec)
    report = evaluate(model, policy)
    score, kg = _score_table(model, report, policy, "policy")
    want = dense @ report.potential
    assert kg.tobytes() == want.tobytes()
    iv = improvement_vector(model, report, policy)
    assert np.array_equal(iv.score, score, equal_nan=True)
