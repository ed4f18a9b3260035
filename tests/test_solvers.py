"""Policy iteration, multi-start, exploration variants, gradient baseline."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_reports_equal,
    model_policy_cases,
    outcome,
    random_mdp,
    restrict_feasible,
)
from mvmdp import (
    DeterministicPolicy,
    EvaluationError,
    EvaluationReport,
    ExplorationConfig,
    GradientConfig,
    MdpModel,
    RandomizedPolicy,
    SolverError,
    ValidationError,
    check_necessary_condition,
    closed_class_count,
    diversity,
    epsilon_greedy_iteration,
    evaluate,
    gradient_solver,
    induced_chain,
    mollify,
    multi_start,
    policy_iteration,
    sample_random_policy,
    ucb_iteration,
)
import mvmdp.evaluation
import mvmdp.model
import mvmdp.sensitivity
from mvmdp import solvers
from mvmdp.sensitivity import improvement_vector
from mvmdp.solvers import (
    TIE_TOL,
    ExplorationResult,
    MultiStartResult,
    SolverTrace,
    TraceRecord,
    _distinct_values,
    _greedy_steps,
    _propose_epsilon,
    _ucb_step,
    _uniform_feasible,
)


def _greedy_step(model, policy, report):
    return _greedy_steps(model, [policy], [report])[0]


class TestPolicyIteration:
    def test_reaches_fixed_point_on_random_models(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = random_mdp(rng)
            pol, trace = policy_iteration(m, sample_random_policy(m, rng))
            assert trace.converged
            assert trace.stop_reason == "fixed_point"
            rep = evaluate(m, pol)
            assert check_necessary_condition(m, rep, pol) == []

    def test_trace_structure(self):
        rng = np.random.default_rng(3)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        pol, trace = policy_iteration(m, init)
        recs = trace.iterations
        assert recs[0].iteration == 0
        assert recs[0].states_changed == 0
        assert recs[0].policy == init
        assert [r.iteration for r in recs] == list(range(len(recs)))
        assert recs[-1].states_changed == 0
        assert recs[-1].policy == pol

    def test_monotone_strict_increase_between_distinct_policies(self):
        for seed in range(8):
            rng = np.random.default_rng(40 + seed)
            m = random_mdp(rng)
            _, trace = policy_iteration(m, sample_random_policy(m, rng))
            for prev, cur in zip(trace.iterations, trace.iterations[1:]):
                if cur.states_changed > 0:
                    assert cur.j_combined > prev.j_combined

    def test_iteration_cap(self):
        rng = np.random.default_rng(1)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        _, full = policy_iteration(m, init)
        assert sum(r.states_changed > 0 for r in full.iterations) >= 2
        _, capped = policy_iteration(m, init, max_iterations=1)
        assert not capped.converged
        assert capped.stop_reason == "max_iterations"
        assert len(capped.iterations) == 2

    def test_negative_cap_rejected(self):
        rng = np.random.default_rng(1)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        with pytest.raises(ValidationError, match="max_iterations must be >= 0"):
            policy_iteration(m, init, max_iterations=-1)
        _, trace = policy_iteration(m, init, max_iterations=0)
        assert [r.policy for r in trace.iterations] == [init]

    def test_fractional_cap_rejected(self):
        rng = np.random.default_rng(1)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        with pytest.raises(ValidationError, match="max_iterations must be an integer, got 2.5"):
            policy_iteration(m, init, max_iterations=2.5)

    def test_default_cap_scales_with_model_size(self):
        rng = np.random.default_rng(6)
        m = random_mdp(rng)
        _, trace = policy_iteration(m, sample_random_policy(m, rng))
        assert len(trace.iterations) - 1 <= 10 * m.num_states * m.num_actions

    def test_non_ergodic_start_raises_solver_error(self, wind_model, frozen_battery_policy):
        with pytest.raises(SolverError, match="step 0"):
            policy_iteration(wind_model, frozen_battery_policy)

    def test_keeps_current_action_on_ties(self):
        # actions 0 and 1 are exact duplicates, so scores tie at every
        # state; the iteration must not oscillate between them
        row = np.array([[0.3, 0.7], [0.3, 0.7]])
        m = MdpModel(
            num_states=2,
            num_actions=2,
            feasible=((0, 1), (0, 1)),
            kernel=np.stack([row, np.array([[0.6, 0.4], [0.6, 0.4]])], axis=1).reshape(2, 2, 2),
            reward=np.array([[1.0, 1.0], [0.0, 0.0]]),
            beta=0.3,
        )
        # duplicate the kernels so both actions are identical per state
        k = np.array([[[0.3, 0.7], [0.3, 0.7]], [[0.6, 0.4], [0.6, 0.4]]])
        m = MdpModel(
            num_states=2,
            num_actions=2,
            feasible=((0, 1), (0, 1)),
            kernel=k,
            reward=np.array([[1.0, 1.0], [0.0, 0.0]]),
            beta=0.3,
        )
        start = DeterministicPolicy(np.array([1, 0]))
        pol, trace = policy_iteration(m, start)
        assert pol == start
        assert len(trace.iterations) == 2


class TestMultiStart:
    def test_best_is_max_over_traces(self):
        m = random_mdp(np.random.default_rng(9))
        res = multi_start(m, 6, seed=1)
        finals = [t.iterations[-1].j_combined for t in res.traces]
        assert res.best_report.j_combined == pytest.approx(max(finals))
        assert finals[res.best_index] == pytest.approx(max(finals))

    def test_distinct_optima_sorted_descending(self):
        m = random_mdp(np.random.default_rng(14))
        res = multi_start(m, 8, seed=2)
        opt = list(res.distinct_optima)
        assert opt == sorted(opt, reverse=True)
        for a, b in zip(opt, opt[1:]):
            assert a - b > 1e-6

    def test_deterministic_given_seed(self):
        m = random_mdp(np.random.default_rng(15))
        r1 = multi_start(m, 4, seed=7)
        r2 = multi_start(m, 4, seed=7)
        assert r1.best_policy == r2.best_policy
        assert r1.best_report.j_combined == r2.best_report.j_combined

    def test_best_report_and_traces_match_direct_runs(self, wind_model):
        rng = np.random.default_rng(61)
        cases = [(wind_model, 5, 0)] + [(random_mdp(rng), 4, k) for k in range(3)]
        for m, n, seed in cases:
            res = multi_start(m, n, seed=seed)
            direct = evaluate(m, res.best_policy)
            for f in dataclasses.fields(direct):
                assert np.array_equal(getattr(res.best_report, f.name), getattr(direct, f.name))
            children = np.random.SeedSequence(seed).spawn(n)
            for k, trace in enumerate(res.traces):
                initial = sample_random_policy(m, np.random.default_rng(children[k]))
                assert policy_iteration(m, initial)[1] == trace

    def test_num_starts_validated(self):
        m = random_mdp(np.random.default_rng(16))
        with pytest.raises(ValidationError, match="num_starts"):
            multi_start(m, 0)
        with pytest.raises(ValidationError, match="num_starts must be an integer, got 2.5"):
            multi_start(m, 2.5)

    def test_diversity_counts_distinct_actions(self):
        pols = [
            DeterministicPolicy(np.array([0, 1, 2])),
            DeterministicPolicy(np.array([0, 2, 2])),
            DeterministicPolicy(np.array([1, 1, 2])),
        ]
        assert diversity(pols) == 2 + 2 + 1
        assert diversity(pols[:1]) == 3

    def test_diversity_matches_the_per_state_set_loop(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            S, A = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            pols = [DeterministicPolicy(rng.integers(0, A, size=S)) for _ in range(int(rng.integers(1, 6)))]
            # repeats of policies already in the set
            pols += [pols[k] for k in rng.integers(0, len(pols), size=int(rng.integers(0, 3)))]
            assert diversity(pols) == loop_diversity(pols)
            assert diversity(iter(pols[:1])) == loop_diversity(pols[:1]) == S

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
    def test_diversity_of_policies_of_two_lengths_is_rejected(self, lengths):
        pols = [DeterministicPolicy(np.zeros(n, dtype=np.int64)) for n in lengths]
        with pytest.raises(ValidationError, match="^diversity needs policies of one length$"):
            diversity(pols)


def loop_diversity(policies):
    """diversity as a per-state loop over the set of actions the policies
    take there."""
    policies = list(policies)
    return sum(len({int(p.action[i]) for p in policies}) for i in range(policies[0].action.shape[0]))


# (solver, start, exception class, message): each solver reports a bad start
# as `validate_for` does, before it scores anything
WIND_THETA = np.full((36, 5), 0.2)
BAD_STARTS = [
    (solver, start, kind, message)
    for solver in ("policy_iteration", "epsilon_greedy_iteration", "ucb_iteration")
    for start, kind, message in [
        (DeterministicPolicy(np.full(36, 4)), "FeasibilityError", "action 4 is infeasible at state 0"),
        (DeterministicPolicy(np.zeros(3, dtype=int)), "ValidationError", "policy has 3 states, model has 36"),
    ]
] + [
    ("gradient_solver", RandomizedPolicy(WIND_THETA), "FeasibilityError",
     "theta puts mass on infeasible action 0 at state 0"),
    ("gradient_solver", RandomizedPolicy(WIND_THETA[:3]), "ValidationError", "theta shape (3, 5) != (36, 5)"),
]
RUN_FROM = {
    "policy_iteration": lambda m, start: policy_iteration(m, start),
    "epsilon_greedy_iteration": lambda m, start: epsilon_greedy_iteration(
        m, start, ExplorationConfig(epsilon=0.1, budget=3)
    ),
    "ucb_iteration": lambda m, start: ucb_iteration(m, start, ExplorationConfig(gamma=0.5, budget=3)),
    "gradient_solver": lambda m, start: gradient_solver(m, start, GradientConfig()),
}


@pytest.mark.parametrize("solver, start, kind, message", BAD_STARTS)
def test_bad_start_raises_the_validation_error(wind_model, monkeypatch, solver, start, kind, message):
    assert outcome(start.validate_for, wind_model) == (kind, message)
    for name in ("_scores", "_gradient"):
        monkeypatch.setattr(solvers, name, lambda *args: pytest.fail("a bad start was scored"))
    assert outcome(RUN_FROM[solver], wind_model, start) == (kind, message)


def test_multi_start_checks_its_starts_once(wind_model, monkeypatch):
    """The starts are checked once, as one batch, where they come in; the
    iterates the steps make and the reports evaluation makes are not
    checked again."""
    checked = []
    check = mvmdp.model._check_policies

    def counting(model, policies):
        checked.append(len(policies))
        return check(model, policies)

    for module in (solvers, mvmdp.evaluation, mvmdp.sensitivity):
        monkeypatch.setattr(module, "_check_policies", counting, raising=False)
    multi_start(wind_model, 10, seed=0)
    assert checked == [10]


def test_gradient_solver_checks_each_theta_once(wind_model, monkeypatch):
    """Each iterate's theta is checked by its evaluation alone, not again
    when its gradient is taken."""
    checked, evaluated = [], []
    validate, evaluate_theta = RandomizedPolicy.validate_for, solvers.evaluate

    def counting_checks(self, model):
        checked.append(self)
        return validate(self, model)

    def counting_evaluations(model, policy):
        evaluated.append(policy)
        return evaluate_theta(model, policy)

    monkeypatch.setattr(RandomizedPolicy, "validate_for", counting_checks)
    monkeypatch.setattr(solvers, "evaluate", counting_evaluations)
    start = RandomizedPolicy(_uniform_feasible(wind_model))
    gradient_solver(wind_model, start, GradientConfig(max_iterations=5))
    # five iterates and the final theta
    assert len(evaluated) == 6
    assert len(checked) == len(evaluated)
    assert all(c is e for c, e in zip(checked, evaluated))


def test_gradient_solver_takes_kernel_times_g_alone(wind_model, monkeypatch):
    """Each gradient step computes kernel @ g and no score table, with the
    bits kernel @ g has in the score table."""
    start = RandomizedPolicy(_uniform_feasible(wind_model))
    config = GradientConfig(max_iterations=8)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_kernel_times", lambda model, reports: mvmdp.sensitivity._scores(model, reports)[1])
        want = gradient_solver(wind_model, start, config)
    monkeypatch.setattr(solvers, "_scores", lambda *args: pytest.fail("a score table was built"))
    got = gradient_solver(wind_model, start, config)
    assert np.array_equal(got.theta.theta, want.theta.theta)
    assert [r.j_combined for r in got.trace.iterations] == [r.j_combined for r in want.trace.iterations]


class TestExplorationConfig:
    def test_epsilon_range(self):
        ExplorationConfig(epsilon=0.0)
        ExplorationConfig(epsilon=0.99)
        with pytest.raises(ValidationError):
            ExplorationConfig(epsilon=1.0)
        with pytest.raises(ValidationError):
            ExplorationConfig(epsilon=-0.1)

    def test_gamma_and_budget(self):
        with pytest.raises(ValidationError):
            ExplorationConfig(gamma=-1.0)
        with pytest.raises(ValidationError):
            ExplorationConfig(budget=0)
        with pytest.raises(ValidationError):
            ExplorationConfig(gamma_decay=0.0)
        with pytest.raises(ValidationError):
            ExplorationConfig(gamma_decay=1.5)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValidationError, match="gamma must be finite and >= 0"):
            ExplorationConfig(gamma=gamma)

    def test_budget_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="budget must be an integer, got 2.5"):
            ExplorationConfig(budget=2.5)
        assert ExplorationConfig(budget=np.int64(3)).budget == 3

    @pytest.mark.parametrize(
        "counts", [[[np.nan, 1.0], [0.0, 2.0]], [[1.5, 1.0], [0.0, 2.0]]], ids=["nan", "fraction"]
    )
    def test_counts_must_hold_integers(self, counts):
        with pytest.raises(ValidationError, match="counts must hold integers"):
            ExplorationConfig(gamma=0.5, counts=np.array(counts))


class TestEpsilonGreedy:
    def test_requires_zero_gamma(self):
        m = random_mdp(np.random.default_rng(17))
        init = sample_random_policy(m, np.random.default_rng(18))
        with pytest.raises(ValidationError, match="gamma"):
            epsilon_greedy_iteration(m, init, ExplorationConfig(epsilon=0.1, gamma=0.5))

    def test_zero_epsilon_matches_plain_iteration(self):
        rng = np.random.default_rng(19)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        pol, _ = policy_iteration(m, init)
        res = epsilon_greedy_iteration(m, init, ExplorationConfig(epsilon=0.0, budget=30))
        assert res.best_report.j_combined == pytest.approx(
            evaluate(m, pol).j_combined, abs=1e-12
        )

    def test_budget_and_best_so_far(self):
        rng = np.random.default_rng(20)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        res = epsilon_greedy_iteration(
            m, init, ExplorationConfig(epsilon=0.3, seed=4, budget=25)
        )
        assert len(res.trace.iterations) == 25
        assert not res.trace.converged
        assert res.trace.stop_reason == "max_iterations"
        best = max(r.j_combined for r in res.trace.iterations)
        assert res.best_report.j_combined == pytest.approx(best)

    def test_exploration_never_loses_to_start(self):
        rng = np.random.default_rng(21)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        res = epsilon_greedy_iteration(
            m, init, ExplorationConfig(epsilon=0.2, seed=5, budget=40)
        )
        assert res.best_report.j_combined >= evaluate(m, init).j_combined - 1e-12

    def test_no_proposal_after_the_last_evaluation(self, monkeypatch):
        rng = np.random.default_rng(22)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _propose_epsilon(*args, **kwargs)

        monkeypatch.setattr(solvers, "_propose_epsilon", counting)
        for budget in (1, 2, 9):
            calls.clear()
            res = epsilon_greedy_iteration(
                m, init, ExplorationConfig(epsilon=0.3, seed=6, budget=budget)
            )
            assert len(res.trace.iterations) == budget
            assert len(calls) == budget - 1


class TestUcb:
    def test_requires_zero_epsilon(self):
        m = random_mdp(np.random.default_rng(22))
        init = sample_random_policy(m, np.random.default_rng(23))
        with pytest.raises(ValidationError, match="epsilon"):
            ucb_iteration(m, init, ExplorationConfig(epsilon=0.1, gamma=0.5))

    def test_counts_cover_all_feasible_pairs(self):
        rng = np.random.default_rng(24)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        budget = 12
        res = ucb_iteration(m, init, ExplorationConfig(gamma=0.4, seed=6, budget=budget))
        pairs = sum(len(acts) for acts in m.feasible)
        assert int(res.counts.sum()) == budget * pairs
        mask = m.feasible_mask()
        assert np.all(res.counts[~mask] == 0)
        assert np.all(res.counts[mask] > 0)

    def test_resumes_from_supplied_counts(self):
        rng = np.random.default_rng(25)
        m = random_mdp(rng)
        init = sample_random_policy(m, rng)
        first = ucb_iteration(m, init, ExplorationConfig(gamma=0.4, seed=6, budget=5))
        second = ucb_iteration(
            m,
            init,
            ExplorationConfig(gamma=0.4, seed=6, budget=5, counts=first.counts),
        )
        pairs = sum(len(acts) for acts in m.feasible)
        assert int(second.counts.sum()) == 10 * pairs

    def test_finds_the_plain_optimum_on_wind(self, wind_model):
        rng = np.random.default_rng(26)
        init = sample_random_policy(wind_model, rng)
        res = ucb_iteration(
            wind_model, init, ExplorationConfig(gamma=0.5, seed=1, budget=60)
        )
        ms = multi_start(wind_model, 5, seed=0)
        assert res.best_report.j_combined == pytest.approx(
            ms.best_report.j_combined, abs=1e-9
        )


def loop_greedy_step(model, policy, iv):
    """Per-state loop reference for _greedy_step."""
    new_action = policy.action.copy()
    for i, acts in enumerate(model.feasible):
        acts = list(acts)
        scores = iv.score[i, acts]
        if scores.max() > iv.current_score[i] + TIE_TOL:
            new_action[i] = acts[int(np.argmax(scores))]
    return new_action


def loop_ucb_step(model, policy, iv, counts, gamma):
    """Per-state loop reference for _ucb_step; updates counts in place."""
    new_action = policy.action.copy()
    for i, acts in enumerate(model.feasible):
        acts = list(acts)
        n = counts[i, acts].astype(float)
        unvisited = [a for a, c in zip(acts, n) if c == 0]
        if unvisited and gamma > 0:
            new_action[i] = unvisited[int(np.argmax(iv.score[i, unvisited]))]
            continue
        total = n.sum()
        bonus = np.zeros(len(acts))
        if gamma > 0 and total > 0:
            bonus = gamma * np.sqrt(2.0 * np.log(total) / n)
        scores = iv.score[i, acts] + bonus
        current = scores[acts.index(int(policy.action[i]))]
        if scores.max() > current + TIE_TOL:
            new_action[i] = acts[int(np.argmax(scores))]
    for i, acts in enumerate(model.feasible):
        counts[i, list(acts)] += 1
    return new_action


def tied_model():
    """Actions 1 and 2 are exact copies and both beat action 0 at each state."""
    kernel = np.array(
        [[[0.5, 0.5], [0.2, 0.8], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1], [0.9, 0.1]]]
    )
    reward = np.array([[-5.0, 1.0, 1.0], [-5.0, 1.0, 1.0]])
    return MdpModel(2, 3, ((0, 1, 2), (0, 1, 2)), kernel, reward, beta=0.1)


def loop_propose_epsilon(model, greedy, epsilon, rng, max_tries=50):
    """Per-state reference: one rng.choice over each exploring state's
    feasible set."""
    if epsilon == 0.0:
        return greedy
    for _ in range(max_tries):
        action = greedy.action.copy()
        explore = rng.random(model.num_states) < epsilon
        for i in np.flatnonzero(explore):
            action[i] = rng.choice(np.asarray(model.feasible[i]))
        proposal = DeterministicPolicy(action)
        P, _ = induced_chain(model, proposal)
        if closed_class_count(P) == 1:
            return proposal
    raise SolverError(f"no evaluable exploratory policy found in {max_tries} draws")


def proposal_outcome(propose, *args):
    try:
        return propose(*args).action.tolist()
    except SolverError as exc:
        return str(exc)


class TestStepLoopReference:
    """The masked greedy and UCB steps reproduce the per-state loops exactly."""

    def ucb_counts(self, rng, model):
        shape = (model.num_states, model.num_actions)
        return (
            np.zeros(shape, dtype=int),
            rng.integers(0, 3, size=shape),
            rng.integers(1, 6, size=shape),
        )

    def check_ucb(self, model, policy, report, counts, gamma):
        iv = improvement_vector(model, report, policy)
        got_counts, want_counts = counts.copy(), counts.copy()
        got = _ucb_step(model, policy, report, got_counts, gamma)
        want = loop_ucb_step(model, policy, iv, want_counts, gamma)
        assert np.array_equal(got.action, want)
        assert np.array_equal(got_counts, want_counts)
        return want

    def test_greedy_and_ucb_steps(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(70)
        switched = 0
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=71):
            rep = evaluate(m, d)
            want = loop_greedy_step(m, d, improvement_vector(m, rep, d))
            assert np.array_equal(_greedy_step(m, d, rep).action, want)
            switched += int(np.sum(want != d.action))
            for counts in self.ucb_counts(rng, m):
                for gamma in (0.0, 0.4, 3.0):
                    self.check_ucb(m, d, rep, counts, gamma)
        assert switched > 0

    def test_epsilon_proposals(self, wind_model, abandon_model_beta1, frozen_battery_policy):
        """Same proposals (or the same SolverError) and the same generator
        state afterwards; epsilon=1e-12 explores no state, so from the
        multichain frozen battery every proposal is rejected."""
        outcomes = set()
        cases = [
            (wind_model, frozen_battery_policy),
            *model_policy_cases([wind_model, abandon_model_beta1], seed=72),
        ]
        for k, (m, d) in enumerate(cases):
            for epsilon in (1e-12, 0.3, 0.9):
                for max_tries in (2, 50):
                    got_rng = np.random.default_rng([73, k])
                    want_rng = np.random.default_rng([73, k])
                    got = proposal_outcome(_propose_epsilon, m, d, epsilon, got_rng, max_tries)
                    want = proposal_outcome(
                        loop_propose_epsilon, m, d, epsilon, want_rng, max_tries
                    )
                    assert got == want
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    if epsilon == 1e-12 and k > 0:
                        assert got == d.action.tolist()
                    outcomes.add("error" if isinstance(got, str) else got != d.action.tolist())
        assert outcomes == {"error", True, False}

    def test_exact_ties_go_to_the_lowest_action(self):
        m = tied_model()
        for start, expect in (([0, 0], [1, 1]), ([2, 2], [2, 2]), ([0, 2], [1, 2])):
            d = DeterministicPolicy(np.array(start))
            rep = evaluate(m, d)
            want = loop_greedy_step(m, d, improvement_vector(m, rep, d))
            assert want.tolist() == expect
            assert _greedy_step(m, d, rep).action.tolist() == expect
        d = DeterministicPolicy(np.array([0, 0]))
        rep = evaluate(m, d)
        # never-scored ties, a partly visited row, and tied bonuses
        for counts in ([[0, 0, 0], [1, 0, 0]], [[2, 1, 1], [3, 4, 4]]):
            want = self.check_ucb(m, d, rep, np.array(counts), gamma=0.5)
            assert want.tolist() == [1, 1]


def memo_free_iterate(model, initial, num_steps, step, stop_at_fixed_point):
    """The solver driver before the report memo: every iterate goes
    through evaluate, repeats included."""
    d = initial
    records = []
    best = None
    for k in range(num_steps):
        try:
            report = evaluate(model, d)
        except EvaluationError as exc:
            raise SolverError(
                f"non-ergodic iterate at improvement step {k}: policy "
                f"{list(int(a) for a in d.action)} ({exc})"
            ) from exc
        changed = int(np.sum(records[-1].policy.action != d.action)) if records else 0
        records.append(
            TraceRecord(k, d, report.j_mean, report.j_var, report.j_combined, changed)
        )
        if best is None or report.j_combined > best[1].j_combined:
            best = (d, report)
        new_d = step(d, report)
        if stop_at_fixed_point and new_d == d:
            records.append(
                TraceRecord(k + 1, d, report.j_mean, report.j_var, report.j_combined, 0)
            )
            return d, best, SolverTrace(tuple(records), True, "fixed_point")
        d = new_d
    return d, best, SolverTrace(tuple(records), False, "max_iterations")


def memo_free_multi_start(model, num_starts, seed, max_iterations=None, sampler=sample_random_policy):
    """multi_start before the report memo and the lockstep rounds:
    independent policy iterations one after the other, each start drawn
    (by `sampler`) when the one before it has finished, then the winner
    (and a capped start's final policy) evaluated again."""
    children = np.random.SeedSequence(seed).spawn(num_starts)
    traces, policies, finals = [], [], []
    best = 0
    for k in range(num_starts):
        initial = sampler(model, np.random.default_rng(children[k]))
        cap = 10 * model.num_states * model.num_actions
        policy, _, trace = memo_free_iterate(
            model,
            initial,
            (cap if max_iterations is None else max_iterations) + 1,
            lambda d, report: _greedy_step(model, d, report),
            stop_at_fixed_point=True,
        )
        if trace.converged:
            final = trace.iterations[-1].j_combined
        else:
            final = evaluate(model, policy).j_combined
        traces.append(trace)
        policies.append(policy)
        finals.append(final)
        if final > finals[best]:
            best = k
    return MultiStartResult(
        best_policy=policies[best],
        best_report=evaluate(model, policies[best]),
        best_index=best,
        traces=tuple(traces),
        distinct_optima=_distinct_values(finals),
    )


def memo_free_ucb(model, initial, config):
    counts = np.zeros((model.num_states, model.num_actions), dtype=int)
    gamma = config.gamma

    def step(d, report):
        nonlocal gamma
        new_d = _ucb_step(model, d, report, counts, gamma)
        gamma *= config.gamma_decay
        return new_d

    _, best, trace = memo_free_iterate(model, initial, config.budget, step, False)
    return ExplorationResult(best[0], best[1], trace, counts)


def memo_free_epsilon_greedy(model, initial, config):
    rng = np.random.default_rng(config.seed)
    steps = 0

    def step(d, report):
        nonlocal steps
        steps += 1
        if steps == config.budget:
            return d
        return _propose_epsilon(model, _greedy_step(model, d, report), config.epsilon, rng)

    _, best, trace = memo_free_iterate(model, initial, config.budget, step, False)
    zeros = np.zeros((model.num_states, model.num_actions), dtype=int)
    return ExplorationResult(best[0], best[1], trace, zeros)


def assert_same_outcome(got, want):
    """Same exception class and message, or every result field equal:
    reports and arrays bit for bit."""
    assert got[0] == want[0]
    if want[0] != "ok":
        assert got[1] == want[1]
        return
    for f in dataclasses.fields(want[1]):
        g, w = getattr(got[1], f.name), getattr(want[1], f.name)
        if isinstance(w, EvaluationReport):
            assert_reports_equal(g, w)
        elif isinstance(w, np.ndarray):
            assert np.array_equal(g, w)
        else:
            assert g == w, f.name


class TestMemoReference:
    """The solvers share one report per policy within a call and give the
    memo-free results exactly: the same policies, reports, traces, counts
    and exceptions."""

    def models(self, wind_model, abandon_model_beta1, abandon_model_b20):
        rng = np.random.default_rng(80)
        abandon_b5 = dataclasses.replace(abandon_model_beta1, beta=0.1)
        randoms = [random_mdp(rng) for _ in range(3)]
        randoms += [restrict_feasible(rng, m) for m in randoms]
        return [wind_model, abandon_b5, abandon_model_beta1, abandon_model_b20, *randoms]

    def test_multi_start(self, wind_model, abandon_model_beta1, abandon_model_b20):
        kinds = set()
        for m in self.models(wind_model, abandon_model_beta1, abandon_model_b20):
            for seed in (0, 1):
                got = outcome(multi_start, m, 10, seed)
                want = outcome(memo_free_multi_start, m, 10, seed)
                assert_same_outcome(got, want)
                kinds.add(want[0])
        assert kinds == {"ok", "SolverError"}

    def test_capped_multi_start(
        self, monkeypatch, wind_model, abandon_model_beta1, abandon_model_b20
    ):
        """With an iteration cap the final policy of a start can be new:
        its evaluation happens after the run and raises a bare
        EvaluationError on a multichain policy."""
        inner = solvers._policy_iteration
        kinds = set()
        for cap in (0, 1, 3):
            monkeypatch.setattr(
                solvers,
                "_policy_iteration",
                lambda m, initials, betas, _, reports: inner(m, initials, betas, cap, reports),
            )
            for m in self.models(wind_model, abandon_model_beta1, abandon_model_b20):
                got = outcome(multi_start, m, 10, 0)
                want = outcome(memo_free_multi_start, m, 10, 0, max_iterations=cap)
                assert_same_outcome(got, want)
                if want[0] == "ok" and not all(t.converged for t in want[1].traces):
                    kinds.add("capped")
                else:
                    kinds.add(want[0])
        assert "capped" in kinds and "EvaluationError" in kinds

    def test_ucb(self, wind_model, abandon_model_beta1, abandon_model_b20):
        for k, m in enumerate(self.models(wind_model, abandon_model_beta1, abandon_model_b20)):
            initial = sample_random_policy(m, np.random.default_rng([81, k]))
            for gamma in (0.0, 1.0, 3.0):
                config = ExplorationConfig(gamma=gamma, seed=k, budget=40, gamma_decay=0.95)
                assert_same_outcome(
                    outcome(ucb_iteration, m, initial, config),
                    outcome(memo_free_ucb, m, initial, config),
                )

    def test_epsilon_greedy(self, wind_model, abandon_model_beta1, abandon_model_b20):
        for k, m in enumerate(self.models(wind_model, abandon_model_beta1, abandon_model_b20)):
            initial = sample_random_policy(m, np.random.default_rng([82, k]))
            for epsilon in (0.0, 0.1, 0.4):
                config = ExplorationConfig(epsilon=epsilon, seed=k, budget=40)
                assert_same_outcome(
                    outcome(epsilon_greedy_iteration, m, initial, config),
                    outcome(memo_free_epsilon_greedy, m, initial, config),
                )

    def test_multi_start_evaluates_each_policy_once(
        self, monkeypatch, wind_model, abandon_model_beta1
    ):
        evaluated = []
        inner = solvers._evaluate_policies

        def counting(model, members):
            evaluated.extend(policy for policy, _ in members)
            return inner(model, members)

        monkeypatch.setattr(solvers, "_evaluate_policies", counting)
        for m in (wind_model, abandon_model_beta1):
            evaluated.clear()
            res = multi_start(m, 10, seed=0)
            visited = {rec.policy for t in res.traces for rec in t.iterations}
            assert len(evaluated) == len(set(evaluated)) == len(visited)
            # the starts do meet: without the memo there are more evaluations
            assert sum(len(t.iterations) - 1 for t in res.traces) > len(visited)

    def test_one_batch_per_round(self, monkeypatch, wind_model):
        """multi_start(wind, 10, seed=0) evaluates the policies each round
        meets for the first time as one batch, in start order, and
        evaluates and scores each distinct policy once."""
        batches, scored = [], []
        evaluate_batch, step_batch = solvers._evaluate_policies, solvers._greedy_steps

        def counting_evaluations(model, members):
            batches.append([policy for policy, _ in members])
            return evaluate_batch(model, members)

        def counting_steps(model, policies, reports):
            scored.extend(policies)
            return step_batch(model, policies, reports)

        monkeypatch.setattr(solvers, "_evaluate_policies", counting_evaluations)
        monkeypatch.setattr(solvers, "_greedy_steps", counting_steps)
        res = multi_start(wind_model, 10, seed=0)
        assert all(t.converged for t in res.traces)
        # a converged trace ends with its fixed point recorded a second time
        evaluated = [[rec.policy for rec in t.iterations[:-1]] for t in res.traces]
        seen, want = set(), []
        for k in range(max(map(len, evaluated))):
            new = [it[k] for it in evaluated if k < len(it) and it[k] not in seen]
            want.append(list(dict.fromkeys(new)))
            seen.update(new)
        assert batches == [batch for batch in want if batch]
        assert max(map(len, batches)) > 1
        assert len(scored) == len(set(scored)) and set(scored) == seen

    def test_error_order_matches_one_start_after_another(
        self, monkeypatch, wind_model, abandon_model_beta1, abandon_model_b20
    ):
        """The lowest-index start that fails gives the error: a draw that
        finds no start, or a multichain start, only when every start before
        it runs through; the starts after a failed start never count."""

        def sampler(fail_at, bad_at, bad):
            calls = []

            def draw(model, rng):
                calls.append(None)
                if len(calls) - 1 == fail_at:
                    raise ValidationError(f"no start {fail_at}")
                if len(calls) - 1 == bad_at:
                    return bad
                return sample_random_policy(model, rng)

            return draw

        kinds = set()
        for m in self.models(wind_model, abandon_model_beta1, abandon_model_b20)[:4]:
            # a constant action that leaves the battery alone: one closed
            # class per battery level
            constant = (DeterministicPolicy(np.full(m.num_states, a)) for a in range(m.num_actions))
            bad = next(
                d for d in constant
                if m.feasible_mask()[:, d.action[0]].all()
                and closed_class_count(induced_chain(m, d)[0]) > 1
            )
            for seed in (0, 1):
                for fail_at, bad_at in ((None, 4), (2, None), (7, None), (7, 3), (3, 7), (0, None)):
                    monkeypatch.setattr(solvers, "sample_random_policy", sampler(fail_at, bad_at, bad))
                    got = outcome(multi_start, m, 10, seed)
                    want = outcome(
                        memo_free_multi_start, m, 10, seed, sampler=sampler(fail_at, bad_at, bad)
                    )
                    assert_same_outcome(got, want)
                    kinds.add(want[0] if want[0] != "ValidationError" else want[1])
        assert {"SolverError", "no start 2", "no start 7", "no start 0"} <= kinds


class TestGradient:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GradientConfig(stop_ratio=0.0)
        with pytest.raises(ValidationError):
            GradientConfig(max_iterations=0)
        with pytest.raises(ValidationError, match="max_iterations must be an integer, got 2.5"):
            GradientConfig(max_iterations=2.5)
        # an infinite stop_ratio would stop after one step, as converged
        with pytest.raises(ValidationError, match="^stop_ratio must be finite and > 0, got inf$"):
            GradientConfig(stop_ratio=np.inf)
        with pytest.raises(ValidationError, match="^stop_ratio must be finite and > 0, got nan$"):
            GradientConfig(stop_ratio=np.nan)

    def test_converges_on_random_model(self):
        rng = np.random.default_rng(27)
        m = random_mdp(rng)
        theta = sample_random_policy(m, rng).as_randomized(m)
        res = gradient_solver(m, theta, GradientConfig(max_iterations=300))
        assert res.trace.converged
        assert res.trace.stop_reason == "threshold"
        rows = res.theta.theta
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(rows >= 0)

    def test_improves_the_start(self):
        rng = np.random.default_rng(28)
        m = random_mdp(rng)
        theta = sample_random_policy(m, rng).as_randomized(m)
        start = evaluate(m, theta).j_combined
        res = gradient_solver(m, theta, GradientConfig(max_iterations=300))
        assert res.report.j_combined >= start - 1e-9

    def test_runs_from_degenerate_one_hot_start(self, wind_model, frozen_battery_policy):
        # the frozen-battery one-hot start has no unique stationary
        # distribution; the solver evaluates a slightly smoothed policy
        # instead of failing
        theta = frozen_battery_policy.as_randomized(wind_model)
        res = gradient_solver(wind_model, theta, GradientConfig(max_iterations=80))
        assert len(res.trace.iterations) >= 2

    def test_trace_iterations_and_changed_states(self):
        rng = np.random.default_rng(29)
        m = random_mdp(rng)
        theta = sample_random_policy(m, rng).as_randomized(m)
        res = gradient_solver(m, theta, GradientConfig(max_iterations=50))
        recs = res.trace.iterations
        assert recs[0].iteration == 0
        assert [r.iteration for r in recs] == list(range(len(recs)))


class TestMollify:
    def test_rows_remain_distributions(self):
        m = random_mdp(np.random.default_rng(30))
        theta = sample_random_policy(m, np.random.default_rng(31)).as_randomized(m)
        soft = mollify(m, theta, eps=1e-3)
        assert np.allclose(soft.theta.sum(axis=1), 1.0, atol=1e-12)
        mask = m.feasible_mask()
        assert np.all(soft.theta[mask] > 0)
        assert np.all(soft.theta[~mask] == 0)

    def test_uniform_feasible_matches_loop(self):
        rng = np.random.default_rng(34)
        m = restrict_feasible(rng, random_mdp(rng))
        want = np.zeros((m.num_states, m.num_actions))
        for i, acts in enumerate(m.feasible):
            want[i, list(acts)] = 1.0 / len(acts)
        assert np.array_equal(_uniform_feasible(m), want)

    @pytest.mark.parametrize("eps", [2.0, -0.1, np.nan, np.inf])
    def test_eps_outside_0_1_is_rejected(self, eps):
        m = random_mdp(np.random.default_rng(35))
        theta = sample_random_policy(m, np.random.default_rng(36)).as_randomized(m)
        with pytest.raises(ValidationError, match=r"eps must be in \[0, 1\], got "):
            mollify(m, theta, eps=eps)
        assert np.array_equal(mollify(m, theta, eps=0.0).theta, theta.theta)
        assert np.array_equal(mollify(m, theta, eps=1.0).theta, _uniform_feasible(m))

    def test_theta_of_another_shape_is_rejected(self, wind_model):
        with pytest.raises(ValidationError, match=r"^theta shape \(2, 2\) != \(36, 5\)$"):
            mollify(wind_model, RandomizedPolicy(np.ones((2, 2))))

    def test_small_eps_stays_close(self):
        m = random_mdp(np.random.default_rng(32))
        theta = sample_random_policy(m, np.random.default_rng(33)).as_randomized(m)
        soft = mollify(m, theta, eps=1e-6)
        assert np.max(np.abs(soft.theta - theta.theta)) < 1e-5


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_fixed_points_are_greedy_stable(seed):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, max_states=5, max_actions=3)
    pol, trace = policy_iteration(m, sample_random_policy(m, rng))
    assert trace.converged
    pol2, trace2 = policy_iteration(m, pol)
    assert pol2 == pol
    assert len(trace2.iterations) == 2


class TestErrorPaths:
    def test_negative_counts(self):
        with pytest.raises(ValidationError, match=r"^counts must be nonnegative$"):
            ExplorationConfig(counts=[[-1]])

    def test_diversity_of_no_policies(self):
        with pytest.raises(ValidationError, match=r"^diversity needs a nonempty policy set$"):
            diversity([])

    def test_ucb_counts_of_the_wrong_shape(self, wind_model):
        start = sample_random_policy(wind_model, np.random.default_rng(0))
        config = ExplorationConfig(gamma=1.0, counts=np.zeros((1, 1), dtype=int))
        with pytest.raises(ValidationError, match="^" + re.escape("counts shape (1, 1) != (36, 5)") + "$"):
            ucb_iteration(wind_model, start, config)
