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
    _check_policies,
    _check_seed,
    _closed_classes,
    _draw_feasible,
    _entries,
    _integer,
    _policy_support,
    _real,
    sample_random_policy,
)
from .sensitivity import _gradient, _kernel_times, _scores

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
        if not 0.0 <= _real(self.epsilon, "epsilon") < 1.0:
            raise ValidationError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0.0 <= _real(self.gamma, "gamma") < np.inf:
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma}")
        _integer(self.budget, "budget", 1)
        _check_seed(self.seed)
        if not 0.0 < _real(self.gamma_decay, "gamma_decay") <= 1.0:
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
        if not 0 < _real(self.stop_ratio, "stop_ratio") < np.inf:
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


def _reports(model: MdpModel, keys: list, reports: dict) -> dict:
    """The evaluation of policy p at beta b for each distinct (p, b) pair
    of `keys`: a dict from each one to its report, or to the
    EvaluationError evaluate raises for it.

    `reports` maps each pair evaluated before in the same solver call to
    its report, which is served from it; the others are evaluated as one
    batch (`_evaluate_policies`). A report is stored only once its
    evaluation succeeds.
    """
    out = {key: reports.get(key) for key in keys}
    todo = [key for key, report in out.items() if report is None]
    if todo:
        for key, report in zip(todo, _evaluate_policies(model, todo)):
            out[key] = report
            if isinstance(report, EvaluationReport):
                reports[key] = report
    return out


def _greedy_steps(model: MdpModel, policies: list, reports: list) -> list:
    """One improvement step from each policy, scored from its report at
    the report's beta, as one batch (`_scores`): per state take the
    best-scoring action, keeping the current one unless some action beats
    it by more than the tie tolerance; exact ties go to the lowest action
    index. A step takes feasible actions only, so its policy needs no
    check."""
    score, _ = _scores(model, reports)
    action = np.array([policy.action for policy in policies])
    current = score[np.arange(len(policies))[:, None], np.arange(model.num_states), action]
    return [DeterministicPolicy(a) for a in _switch_if_better(model, action, score, current)]


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


def _iterate(model, initials, betas, num_steps, step, stop_at_fixed_point, reports):
    """The evaluate -> record -> step loop every policy-iteration variant
    runs, driving each start of `initials` at each beta of `betas` in one
    lockstep: a run per (beta, start) pair.

    The starts are checked once, as validate_for checks each; the later
    iterates come from steps and are not checked again. Each round
    evaluates the distinct (policy, beta) pairs the live runs are at as one
    batch (`_reports`: a pair already in `reports` is not evaluated again),
    records them, and calls `step(keys, reports)` once with the live runs'
    (policy, beta) pairs and reports; it returns each one's next policy. A
    run evaluates at most `num_steps` iterates. With `stop_at_fixed_point`
    a run ends when its step returns the policy it was given, which is
    recorded once more. A run fails when an iterate does not evaluate.

    Every run goes to its own end, whatever the others do. Returns, for
    each beta, one entry per start: (last policy, trace), or the
    SolverError of the iterate that failed.
    """
    if initials:
        _check_policies(model, initials)
    key = [(policy, beta) for beta in betas for policy in initials]  # run g * n + i
    report = [None] * len(key)  # of each run's current policy
    records = [[] for _ in key]
    changed = [0] * len(key)
    runs = [None] * len(key)
    live = list(range(len(key)))
    for k in range(num_steps):
        if not live:
            break
        outcomes = _reports(model, [key[t] for t in live], reports)
        stepping = []
        for t in live:
            policy, report[t] = key[t][0], outcomes[key[t]]
            if isinstance(report[t], EvaluationError):
                runs[t] = _non_ergodic(k, policy, report[t])
            else:
                records[t].append(_record(k, policy, report[t], changed[t]))
                stepping.append(t)
        live = []
        if not stepping:
            continue
        steps = step([key[t] for t in stepping], [report[t] for t in stepping])
        moved = np.count_nonzero(
            np.array([new.action for new in steps])
            != np.array([key[t][0].action for t in stepping]),
            axis=1,
        ).tolist()
        for t, new, moves in zip(stepping, steps, moved):
            policy = key[t][0]
            if stop_at_fixed_point and moves == 0:
                records[t].append(_record(k + 1, policy, report[t]))
                runs[t] = (policy, SolverTrace(tuple(records[t]), True, "fixed_point"))
            else:
                key[t], changed[t] = (new, key[t][1]), moves
                live.append(t)
    for t in live:
        runs[t] = (key[t][0], SolverTrace(tuple(records[t]), False, "max_iterations"))
    n = len(initials)
    return [runs[g * n : (g + 1) * n] for g in range(len(betas))]


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
    steps of each round's distinct (policy, beta) pairs as one batch. Each
    pair is scored once per solver call, since its step depends only on
    the policy and its report at that beta."""
    steps = {}

    def step(keys, reports):
        todo = {key: report for key, report in zip(keys, reports) if key not in steps}
        if todo:
            new = _greedy_steps(model, [policy for policy, _ in todo], list(todo.values()))
            steps.update(zip(todo, new))
        return [steps[key] for key in keys]

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
    with the repeated fixed-point policy. An iterate that does not
    evaluate raises SolverError.
    """
    (runs,) = _policy_iteration(model, [initial], [model.beta], max_iterations, {})
    return _sole(runs)


def _policy_iteration(model, initials, betas, max_iterations, reports):
    """policy_iteration from each of `initials` at each beta of `betas` in
    one lockstep, reading and filling the report memo `reports`: the runs
    of `_iterate`, one list per beta."""
    if max_iterations is None:
        max_iterations = 10 * model.num_states * model.num_actions
    _integer(max_iterations, "max_iterations", 0)
    return _iterate(
        model, initials, betas, max_iterations + 1, _greedy(model), stop_at_fixed_point=True,
        reports=reports,
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
    Every start runs to its own end, so results and errors are those of
    running the starts one after the other. The error raised is that of
    the lowest-index start that fails: its run fails, or its capped final
    policy does not evaluate. A draw that finds no start counts as its
    start failing, so its error is raised only when every start before it
    runs through. `cli.sweep_beta` runs this lockstep over every beta of
    its grid at once; multi_start is its case of one beta, model.beta.
    """
    (result,) = _multi_start(model, [model.beta], *_draw_starts(model, num_starts, seed))
    if isinstance(result, Exception):
        raise result
    return result


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


def _multi_start(model, betas, initials, draw_error) -> list:
    """multi_start at each beta of `betas` from the starts `_draw_starts`
    drew, as one lockstep over every (beta, start) pair: for each beta its
    MultiStartResult, or the exception multi_start raises there. The betas
    share one report memo, keyed by (policy, beta).

    Each start's outcome at a beta is its run's SolverError, or the report
    of its final policy: a converged run's is in the memo, and a capped
    run's may be new, so its EvaluationError is raised bare. At each beta
    the lowest-index start whose outcome is an error gives the error, and
    the draw error comes only after every start."""
    reports = {}
    groups = _policy_iteration(model, initials, betas, None, reports)
    ended = [
        (run[0], beta)
        for beta, runs in zip(betas, groups)
        for run in runs
        if isinstance(run, tuple)
    ]
    finals = _reports(model, ended, reports)
    out = []
    for beta, runs in zip(betas, groups):
        ends = [finals[run[0], beta] if isinstance(run, tuple) else run for run in runs]
        error = next((end for end in ends if isinstance(end, Exception)), draw_error)
        out.append(_best_run(runs, ends) if error is None else error)
    return out


def _best_run(runs, finals: list) -> MultiStartResult:
    """The MultiStartResult of one beta's runs, whose final policies have
    the reports `finals`."""
    values = [report.j_combined for report in finals]
    best = 0
    for k, value in enumerate(values):
        if value > values[best]:
            best = k
    return MultiStartResult(
        best_policy=runs[best][0],
        best_report=finals[best],
        best_index=best,
        traces=tuple(trace for _, trace in runs),
        distinct_optima=_distinct_values(values),
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
    probability epsilon. Runs until the evaluation budget is spent and
    returns the best iterate (`_explore`)."""
    if config.gamma != 0.0:
        raise ValidationError("epsilon-greedy run requires gamma == 0")
    rng = np.random.default_rng(config.seed)
    steps = 0

    def step(keys, reports):
        nonlocal steps
        ((d, _),), (report,) = keys, reports
        steps += 1
        if steps == config.budget:
            # the budget is spent: no later iterate would evaluate a proposal
            return [d]
        (greedy,) = _greedy_steps(model, [d], [report])
        return [_propose_epsilon(model, greedy, config.epsilon, rng)]

    return _explore(
        model, initial, config, step, np.zeros((model.num_states, model.num_actions), dtype=int)
    )


def _explore(model, initial, config, step, counts) -> ExplorationResult:
    """Run an exploring solver's `step` from `initial` for the evaluation
    budget, and return its best iterate: the first record with the largest
    j_combined, with the report of its policy from the run's memo."""
    reports = {}
    (runs,) = _iterate(
        model, [initial], [model.beta], config.budget, step, stop_at_fixed_point=False,
        reports=reports,
    )
    _, trace = _sole(runs)
    best = max(trace.iterations, key=lambda record: record.j_combined)
    return ExplorationResult(best.policy, reports[best.policy, model.beta], trace, counts)


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
    (score,), _ = _scores(model, [report])
    mask = model.feasible_mask()
    scores = score
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
        first = np.where(unvisited, score, -np.inf).argmax(axis=1)
        new_action = np.where(unvisited.any(axis=1), first, new_action)
    counts[mask] += 1
    return DeterministicPolicy(new_action)


def ucb_iteration(
    model: MdpModel, initial: DeterministicPolicy, config: ExplorationConfig
) -> ExplorationResult:
    """Policy iteration with an upper-confidence exploration bonus on the
    improvement scores; gamma decays by gamma_decay each iteration. Runs
    until the evaluation budget is spent and returns the best iterate
    (`_explore`)."""
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

    def step(keys, reports):
        nonlocal gamma
        ((d, _),), (report,) = keys, reports
        new_d = _ucb_step(model, d, report, counts, gamma)
        gamma *= config.gamma_decay
        return [new_d]

    return _explore(model, initial, config, step, counts)


def _uniform_feasible(model: MdpModel) -> np.ndarray:
    """Rows spreading unit mass evenly over each state's feasible actions."""
    mask = model.feasible_mask()
    return mask / mask.sum(axis=1, keepdims=True)


def mollify(model: MdpModel, theta: RandomizedPolicy, eps: float = MOLLIFY_EPS):
    """Mix a vanishing uniform-feasible component into every state row,
    making the induced chain irreducible whenever the model's union support
    is. Used to take gradients at policies whose own chain has no unique
    stationary distribution. eps must lie in [0, 1]."""
    if not 0.0 <= _real(eps, "eps") <= 1.0:
        raise ValidationError(f"eps must be in [0, 1], got {eps}")
    theta.validate_for(model)
    blended = (1.0 - eps) * theta.theta + eps * _uniform_feasible(model)
    return RandomizedPolicy(blended)


@dataclass(frozen=True)
class GradientResult:
    theta: RandomizedPolicy
    trace: SolverTrace
    report: EvaluationReport


def _evaluate_theta(model: MdpModel, theta: RandomizedPolicy) -> EvaluationReport:
    """Evaluate theta, falling back to a mollified copy when the strict
    chain has no unique stationary distribution."""
    try:
        return evaluate(model, theta)
    except EvaluationError:
        return evaluate(model, mollify(model, theta))


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
        report = _evaluate_theta(model, pol)
        grad = _gradient(model, report, _kernel_times(model, [report])[0])
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
    final_report = _evaluate_theta(model, final)
    records.append(_record(len(records), final, final_report))
    return GradientResult(
        theta=final,
        trace=SolverTrace(tuple(records), converged, stop_reason),
        report=final_report,
    )
