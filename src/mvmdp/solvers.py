"""Solvers for the combined mean-variance metric.

policy_iteration is the exact potential-based improvement loop; multi_start,
epsilon_greedy_iteration, and ucb_iteration wrap it with exploration to
escape local optima of the nonconvex combined metric; gradient_solver is the
projected-gradient baseline over randomized policies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, SolverError, ValidationError
from .evaluation import EvaluationReport, _evaluate_policies, _sole, evaluate
from .model import (
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    _check_seed,
    _closed_classes,
    _draw_feasible,
    _entries,
    _integer,
    _policy_support,
    sample_random_policy,
)
from .sensitivity import _scores, derivative_randomized, improvement_vector

TIE_TOL = 1e-9
DISTINCT_OPTIMA_TOL = 1e-6
MOLLIFY_EPS = 1e-6


@dataclass(frozen=True)
class TraceRecord:
    """One solver iterate: the policy, its metrics, and how many states the
    improvement step changed relative to the previous iterate."""

    iteration: int
    policy: object
    j_mean: float
    j_var: float
    j_combined: float
    states_changed: int


@dataclass(frozen=True)
class SolverTrace:
    iterations: tuple
    converged: bool
    stop_reason: str  # fixed_point | max_iterations | threshold


@dataclass(frozen=True)
class ExplorationConfig:
    """Knobs for the exploring solvers.

    epsilon-greedy and UCB are mutually exclusive per run: the epsilon
    solver requires gamma == 0 and the UCB solver requires epsilon == 0.
    counts optionally carries visit counts from a previous run; they only
    ever increase. budget caps the number of policy evaluations.
    """

    epsilon: float = 0.0
    gamma: float = 0.0
    counts: np.ndarray | None = None
    seed: int = 0
    budget: int = 100
    gamma_decay: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValidationError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0.0 <= self.gamma < np.inf:
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma}")
        _integer(self.budget, "budget", 1)
        _check_seed(self.seed)
        if not 0.0 < self.gamma_decay <= 1.0:
            raise ValidationError(f"gamma_decay must be in (0, 1], got {self.gamma_decay}")
        if self.counts is not None and np.any(
            _entries(self.counts, "iu", "counts must hold integers") < 0
        ):
            raise ValidationError("counts must be nonnegative")


@dataclass(frozen=True)
class GradientConfig:
    """Projected-gradient settings: step size 1/sqrt(l), stop when the
    largest per-state L1 parameter change drops below stop_ratio."""

    stop_ratio: float = 0.001
    max_iterations: int = 500

    def __post_init__(self):
        if not 0 < self.stop_ratio < np.inf:
            raise ValidationError(f"stop_ratio must be finite and > 0, got {self.stop_ratio}")
        _integer(self.max_iterations, "max_iterations", 1)


@dataclass(frozen=True)
class MultiStartResult:
    best_policy: DeterministicPolicy
    best_report: EvaluationReport
    best_index: int
    traces: tuple
    distinct_optima: tuple


@dataclass(frozen=True)
class ExplorationResult:
    """Best policy seen by an exploring solver, its report and the trace.

    counts[i, a] is how often UCB scored the pair (i, a), starting from
    ExplorationConfig.counts; epsilon-greedy keeps no counts and returns
    zeros.
    """

    best_policy: DeterministicPolicy
    best_report: EvaluationReport
    trace: SolverTrace
    counts: np.ndarray


def _reports(model: MdpModel, policies: list, reports: dict) -> dict:
    """evaluate(model, p) for each distinct policy p of `policies`: a dict
    from each one to its report, or to the EvaluationError evaluate raises
    for it.

    `reports` maps each policy evaluated before in the same solver call to
    its report, which is served from it; the others are evaluated as one
    batch (`_evaluate_policies`). A report is stored only once its
    evaluation succeeds.
    """
    out = {policy: reports.get(policy) for policy in policies}
    todo = [policy for policy, report in out.items() if report is None]
    if todo:
        for policy, report in zip(todo, _evaluate_policies(model, todo)):
            out[policy] = report
            if isinstance(report, EvaluationReport):
                reports[policy] = report
    return out


def _greedy_steps(model: MdpModel, policies: list, reports: list) -> list:
    """One improvement step from each policy, scored as one batch
    (`_scores`): per state take the best-scoring action, keeping the
    current one unless some action beats it by more than the tie
    tolerance; exact ties go to the lowest action index. A policy whose
    report fails the scoring's residual check gets the ValidationError
    improvement_vector raises, in place of its step."""
    score, _, residual, ok = _scores(model, reports, policies)
    action = np.array([policy.action for policy in policies])
    current = score[np.arange(len(policies))[:, None], np.arange(model.num_states), action]
    new_action = _switch_if_better(model, action, score, current)
    return [
        DeterministicPolicy(a)
        if passed
        else ValidationError(
            f"evaluation report does not match the policy (Poisson residual {res:.3e})"
        )
        for a, passed, res in zip(new_action, ok, residual)
    ]


def _greedy_step(
    model: MdpModel, policy: DeterministicPolicy, report: EvaluationReport
) -> DeterministicPolicy:
    """`_greedy_steps` from one policy; its error is raised."""
    (new,) = _greedy_steps(model, [policy], [report])
    if isinstance(new, Exception):
        raise new
    return new


def _switch_if_better(model, action, scores, current):
    """Action tables moving each state to its best feasible action when
    that beats `current` by more than the tie tolerance; argmax gives exact
    ties to the lowest action index. `action` is one table or a stack of
    them, with `scores` and `current` stacked alike."""
    scores = np.where(model.feasible_mask(), scores, -np.inf)
    switch = scores.max(axis=-1) > current + TIE_TOL
    return np.where(switch, scores.argmax(axis=-1), action)


def _record(k: int, policy, report: EvaluationReport, changed: int = 0) -> TraceRecord:
    """Trace record k: the policy, the metrics of its report and how many
    states the step that led to it changed."""
    return TraceRecord(k, policy, report.j_mean, report.j_var, report.j_combined, changed)


def _iterate(model, initials, num_steps, step, stop_at_fixed_point, reports):
    """The evaluate -> record -> step loop every policy-iteration variant
    runs, driving the starts `initials` in lockstep.

    Each round evaluates the distinct policies the live starts are at as
    one batch (`_reports`: a policy already in `reports` is not evaluated
    again), records them, and calls `step(policies, reports)` once with
    the live starts' iterates and reports. It returns each one's next
    iterate, or the exception its step raised. A start evaluates at most
    `num_steps` iterates; the first evaluation validates the initial
    policies. With `stop_at_fixed_point` a start ends when its step returns
    the policy it was given, which is recorded once more.

    A start fails when an iterate does not evaluate (a SolverError) or its
    step fails. Run one after the other, the starts after it would never
    have run, so they are dropped at once; the starts before it run on, and
    a failure among them takes its place. Returns one entry per start up
    to the first that failed: (last policy, best (policy, report)
    evaluated, trace), and for the failed start its exception.
    """
    n = len(initials)
    policy = list(initials)
    report = [None] * n  # of each start's current policy
    records = [[] for _ in range(n)]
    best = [None] * n
    changed = [0] * n
    runs = [None] * n
    stop = n  # the first failed start
    live = list(range(n))
    for k in range(num_steps):
        if not live:
            break
        outcomes = _reports(model, [policy[i] for i in live], reports)
        stepping = []
        for i in live:
            report[i] = outcomes[policy[i]]
            if isinstance(report[i], EvaluationError):
                runs[i], stop = _non_ergodic(k, policy[i], report[i]), i
                break
            records[i].append(_record(k, policy[i], report[i], changed[i]))
            if best[i] is None or report[i].j_combined > best[i][1].j_combined:
                best[i] = (policy[i], report[i])
            stepping.append(i)
        live = []
        if not stepping:
            continue
        steps = step([policy[i] for i in stepping], [report[i] for i in stepping])
        for i, new in zip(stepping, steps):
            if isinstance(new, Exception):
                runs[i], stop = new, i
                break
        stepping = [i for i in stepping if i < stop]
        if not stepping:
            continue
        moved = np.count_nonzero(
            np.array([new.action for new in steps[: len(stepping)]])
            != np.array([policy[i].action for i in stepping]),
            axis=1,
        ).tolist()
        for i, new, moves in zip(stepping, steps, moved):
            if stop_at_fixed_point and moves == 0:
                records[i].append(_record(k + 1, policy[i], report[i]))
                runs[i] = (policy[i], best[i], SolverTrace(tuple(records[i]), True, "fixed_point"))
            else:
                policy[i], changed[i] = new, moves
                live.append(i)
    for i in live:
        runs[i] = (policy[i], best[i], SolverTrace(tuple(records[i]), False, "max_iterations"))
    return runs[: stop + 1]


def _non_ergodic(k: int, policy: DeterministicPolicy, exc: EvaluationError) -> SolverError:
    """The SolverError of an iterate at improvement step k that did not
    evaluate, caused by its EvaluationError."""
    error = SolverError(
        f"non-ergodic iterate at improvement step {k}: policy "
        f"{list(int(a) for a in policy.action)} ({exc})"
    )
    error.__cause__ = exc
    return error


def _greedy(model: MdpModel):
    """The step of policy iteration as `_iterate` calls it: the greedy
    steps of each round's distinct policies as one batch. Each distinct
    policy is scored once per solver call, since its step depends only
    on it and its report."""
    steps = {}

    def step(policies, reports):
        todo = {p: report for p, report in zip(policies, reports) if p not in steps}
        if todo:
            steps.update(zip(todo, _greedy_steps(model, list(todo), list(todo.values()))))
        return [steps[p] for p in policies]

    return step


def policy_iteration(
    model: MdpModel,
    initial: DeterministicPolicy,
    max_iterations: int | None = None,
):
    """Exact policy iteration on the combined metric.

    Evaluates the current policy, scores all feasible pairs with its
    potentials, and moves every state to its best-scoring action until the
    policy repeats. The combined metric strictly increases at every step
    that changes the policy. Returns (final policy, trace); the trace ends
    with the repeated fixed-point policy.
    """
    d, _, trace = _sole(_policy_iteration(model, [initial], max_iterations, {}))
    return d, trace


def _policy_iteration(model, initials, max_iterations, reports):
    """policy_iteration from each of `initials` in lockstep, reading and
    filling the report memo `reports`: the runs of `_iterate`."""
    if max_iterations is None:
        max_iterations = 10 * model.num_states * model.num_actions
    _integer(max_iterations, "max_iterations", 0)
    return _iterate(
        model, initials, max_iterations + 1, _greedy(model), stop_at_fixed_point=True, reports=reports
    )


def diversity(policies) -> int:
    """Sum over states of the number of distinct actions the set uses."""
    policies = list(policies)
    if not policies:
        raise ValidationError("diversity needs a nonempty policy set")
    if len({p.action.shape for p in policies}) != 1:
        raise ValidationError("diversity needs policies of one length")
    # a state's distinct actions: its first sorted action and each change
    actions = np.sort(np.stack([p.action for p in policies]), axis=0)
    return actions.shape[1] + int(np.count_nonzero(np.diff(actions, axis=0)))


def _distinct_values(values, tol: float = DISTINCT_OPTIMA_TOL):
    """Cluster values whose pairwise gap exceeds tol; returns descending reps."""
    out = []
    for v in sorted(values, reverse=True):
        if not out or out[-1] - v > tol:
            out.append(v)
    return tuple(out)


def multi_start(model: MdpModel, num_starts: int, seed: int = 0) -> MultiStartResult:
    """Run policy_iteration from seeded random irreducible initial policies.

    The best run by final combined metric wins; ties go to the lowest start
    index. distinct_optima lists the final values that differ by more than
    1e-6, descending. The starts run in lockstep: each round evaluates the
    distinct new policies they are at as one batch, and scores the
    distinct policies as one batch. All starts share one report per
    policy, so a policy that several starts pass through, and the winner's
    best_report, are evaluated once per call; only the final policy of a
    start that hit the iteration cap can need an evaluation after its run.
    Results and errors are those of running the starts one after the
    other: the error of the lowest-index start that fails, where a draw
    that finds no start counts as its start failing. Before an error is
    raised, starts after the failed one may have been evaluated.
    """
    return _multi_start(model, *_draw_starts(model, num_starts, seed), {})


def _draw_starts(model, num_starts, seed):
    """(initials, draw_error): multi_start's seeded random starts, up to the
    first draw that finds none, and that draw's ValidationError (None when
    every draw succeeds). The sampler reads only the model's structure, so
    the starts do not depend on beta."""
    _integer(num_starts, "num_starts", 1)
    _check_seed(seed)
    initials = []
    for child in np.random.SeedSequence(seed).spawn(num_starts):
        try:
            initials.append(sample_random_policy(model, np.random.default_rng(child)))
        except ValidationError as exc:
            return initials, exc
    return initials, None


def _multi_start(model, initials, draw_error, reports):
    """multi_start from the starts `_draw_starts` drew, reading and filling
    the report memo `reports`. The starts before a failed draw run first,
    and their errors come first."""
    runs = _policy_iteration(model, initials, None, reports)
    # a capped start's final policy may be new: its EvaluationError is raised bare
    capped = [k for k, run in enumerate(runs) if not isinstance(run, Exception) and not run[2].converged]
    ends = _reports(model, [runs[k][0] for k in capped], reports)
    for k in capped:
        if isinstance(ends[runs[k][0]], EvaluationError):
            runs[k:] = [ends[runs[k][0]]]
            break
    if runs and isinstance(runs[-1], Exception):
        raise runs[-1]
    if draw_error is not None:
        raise draw_error
    finals = [reports[policy].j_combined for policy, _, _ in runs]
    best = 0
    for k, final in enumerate(finals):
        if final > finals[best]:
            best = k
    return MultiStartResult(
        best_policy=runs[best][0],
        best_report=reports[runs[best][0]],
        best_index=best,
        traces=tuple(trace for _, _, trace in runs),
        distinct_optima=_distinct_values(finals),
    )


def _propose_epsilon(
    model: MdpModel,
    greedy: DeterministicPolicy,
    epsilon: float,
    rng: np.random.Generator,
    max_tries: int = 50,
) -> DeterministicPolicy:
    """Randomize the greedy step per state; redraw proposals that would
    induce a chain without a unique stationary distribution (more than one
    closed class, read from the model's successor table)."""
    if epsilon == 0.0:
        return greedy
    for _ in range(max_tries):
        action = greedy.action.copy()
        explore = np.flatnonzero(rng.random(model.num_states) < epsilon)
        action[explore] = _draw_feasible(model, rng, explore)
        if _closed_classes(*_policy_support(model, action)) == 1:
            return DeterministicPolicy(action)
    raise SolverError(
        f"no evaluable exploratory policy found in {max_tries} draws"
    )


def epsilon_greedy_iteration(
    model: MdpModel, initial: DeterministicPolicy, config: ExplorationConfig
) -> ExplorationResult:
    """Policy iteration whose improvement step is randomized per state with
    probability epsilon; tracks and returns the best policy seen. Runs until
    the evaluation budget is spent."""
    if config.gamma != 0.0:
        raise ValidationError("epsilon-greedy run requires gamma == 0")
    rng = np.random.default_rng(config.seed)
    steps = 0

    def step(policies, reports):
        nonlocal steps
        (d,), (report,) = policies, reports
        steps += 1
        if steps == config.budget:
            # the budget is spent: no later iterate would evaluate a proposal
            return [d]
        return [_propose_epsilon(model, _greedy_step(model, d, report), config.epsilon, rng)]

    _, best, trace = _sole(
        _iterate(model, [initial], config.budget, step, stop_at_fixed_point=False, reports={})
    )
    return ExplorationResult(
        best_policy=best[0],
        best_report=best[1],
        trace=trace,
        counts=np.zeros((model.num_states, model.num_actions), dtype=int),
    )


def _ucb_step(
    model: MdpModel,
    policy: DeterministicPolicy,
    report: EvaluationReport,
    counts: np.ndarray,
    gamma: float,
) -> DeterministicPolicy:
    """Greedy step on Q + exploration bonus.

    Never-scored pairs are taken first (infinite bonus); otherwise the bonus
    is gamma * sqrt(2 ln(total state count) / pair count). Counts increment
    afterwards for every feasible pair scored."""
    iv = improvement_vector(model, report, policy)
    mask = model.feasible_mask()
    scores = iv.score
    if gamma > 0:
        n = counts.astype(float)
        total = np.where(mask, n, 0.0).sum(axis=1)
        # states with a never-scored pair get inf/nan here; they are overridden below
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = scores + gamma * np.sqrt(2.0 * np.log(total)[:, None] / n)
    current = scores[np.arange(model.num_states), policy.action]
    new_action = _switch_if_better(model, policy.action, scores, current)
    if gamma > 0:
        unvisited = mask & (counts == 0)
        first = np.where(unvisited, iv.score, -np.inf).argmax(axis=1)
        new_action = np.where(unvisited.any(axis=1), first, new_action)
    counts[mask] += 1
    return DeterministicPolicy(new_action)


def ucb_iteration(
    model: MdpModel, initial: DeterministicPolicy, config: ExplorationConfig
) -> ExplorationResult:
    """Policy iteration with an upper-confidence exploration bonus on the
    improvement scores; gamma decays by gamma_decay each iteration. Tracks
    the best policy seen and runs until the budget is spent."""
    if config.epsilon != 0.0:
        raise ValidationError("UCB run requires epsilon == 0")
    if config.counts is not None:
        counts = np.array(config.counts, dtype=int)
        if counts.shape != (model.num_states, model.num_actions):
            raise ValidationError(
                f"counts shape {counts.shape} != {(model.num_states, model.num_actions)}"
            )
    else:
        counts = np.zeros((model.num_states, model.num_actions), dtype=int)
    gamma = config.gamma

    def step(policies, reports):
        nonlocal gamma
        (d,), (report,) = policies, reports
        new_d = _ucb_step(model, d, report, counts, gamma)
        gamma *= config.gamma_decay
        return [new_d]

    _, best, trace = _sole(
        _iterate(model, [initial], config.budget, step, stop_at_fixed_point=False, reports={})
    )
    return ExplorationResult(
        best_policy=best[0], best_report=best[1], trace=trace, counts=counts
    )


def _uniform_feasible(model: MdpModel) -> np.ndarray:
    """Rows spreading unit mass evenly over each state's feasible actions."""
    mask = model.feasible_mask()
    return mask / mask.sum(axis=1, keepdims=True)


def mollify(model: MdpModel, theta: RandomizedPolicy, eps: float = MOLLIFY_EPS):
    """Mix a vanishing uniform-feasible component into every state row,
    making the induced chain irreducible whenever the model's union support
    is. Used to take gradients at policies whose own chain has no unique
    stationary distribution. eps must lie in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must be in [0, 1], got {eps}")
    blended = (1.0 - eps) * theta.theta + eps * _uniform_feasible(model)
    return RandomizedPolicy(blended)


@dataclass(frozen=True)
class GradientResult:
    theta: RandomizedPolicy
    trace: SolverTrace
    report: EvaluationReport


def _evaluate_theta(model: MdpModel, theta: RandomizedPolicy):
    """Evaluate theta, falling back to a mollified copy when the strict
    chain has no unique stationary distribution."""
    try:
        return theta, evaluate(model, theta)
    except EvaluationError:
        soft = mollify(model, theta)
        return soft, evaluate(model, soft)


def gradient_solver(
    model: MdpModel, initial_theta: RandomizedPolicy, config: GradientConfig
) -> GradientResult:
    """Projected gradient ascent over randomized policies.

    Each iteration adds step 1/sqrt(l) to the probability of the
    maximal-gradient action at every state and renormalizes the rows. Stops
    when the largest per-state L1 change falls below stop_ratio (rows carry
    unit mass, so this is the relative change)."""
    theta = initial_theta.theta
    records = []
    prev_argmax = None
    stop_reason = "max_iterations"
    converged = False
    for l in range(1, config.max_iterations + 1):
        pol = RandomizedPolicy(theta)
        eval_pol, report = _evaluate_theta(model, pol)
        grad = derivative_randomized(model, eval_pol, report)
        arg = np.nanargmax(np.where(np.isnan(grad), -np.inf, grad), axis=1)
        changed = 0 if prev_argmax is None else int(np.sum(arg != prev_argmax))
        records.append(_record(l - 1, pol, report, changed))
        prev_argmax = arg
        alpha = 1.0 / np.sqrt(l)
        new_theta = theta.copy()
        new_theta[np.arange(model.num_states), arg] += alpha
        new_theta /= new_theta.sum(axis=1, keepdims=True)
        delta = float(np.max(np.abs(new_theta - theta).sum(axis=1)))
        theta = new_theta
        if delta < config.stop_ratio:
            converged = True
            stop_reason = "threshold"
            break
    final = RandomizedPolicy(theta)
    _, final_report = _evaluate_theta(model, final)
    records.append(_record(len(records), final, final_report))
    return GradientResult(
        theta=final,
        trace=SolverTrace(tuple(records), converged, stop_reason),
        report=final_report,
    )
