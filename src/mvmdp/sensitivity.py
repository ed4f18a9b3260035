"""Performance differences and derivatives for the mean-variance metric.

The central objects are the per-(state, action) improvement scores
Q(i, a) = r(i, a) - beta (r(i, a) - J_mean)^2 + sum_j p^a(i, j) g(j),
the exact two-policy difference formula built from them, and the
mixed-policy and randomized-policy derivatives. All quantities are computed
with the current policy's stationary data only, except the difference
formula which also evaluates the comparison policy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .evaluation import EvaluationReport, _squared_deviation, evaluate, poisson_residual
from .model import DeterministicPolicy, MdpModel, RandomizedPolicy, _check_policies

VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class ImprovementVector:
    """Q-scores per feasible pair; NaN marks infeasible entries.

    current_score[i] is the score of the action the current policy takes.
    """

    score: np.ndarray
    current_score: np.ndarray


@dataclass(frozen=True)
class DifferenceBreakdown:
    """Exact decomposition of J'_combined - J_combined between two policies.

    linear_part: comparison-policy stationary average of the score change.
    square_part: beta (J'_mean - J_mean)^2, always nonnegative; this term is
        what breaks plain dynamic programming for the combined metric.
    total: linear_part + square_part.
    direct: the same difference from two independent evaluations.
    """

    linear_part: float
    square_part: float
    total: float
    direct: float


def _kernel_times(model: MdpModel, reports: list) -> np.ndarray:
    """kernel @ g of the reports' potentials g, stacked (M, S, A), block
    by block over the model's dense kernel blocks, with the bits of the
    whole product; each block is built once for the batch and multiplied
    by every potential in one stacked np.matmul, which numpy takes as one
    gemv per (potential, state) pair, as block @ g does (block @ G.T is a
    gemm and rounds differently)."""
    G = np.array([report.potential for report in reports])
    kg = np.empty((len(reports), model.num_states, model.num_actions))
    for lo, hi, block in model._blocks():
        np.matmul(block, G[:, None, :, None], out=kg[:, lo:hi, :, None])
    return kg


def _scores(model: MdpModel, reports: list, beta: float | None = None):
    """(score, kg) of the reports, as one batch: the Q-scores of every
    feasible pair (NaN elsewhere) and kernel @ g (`_kernel_times`), stacked
    (M, S, A). Each report is scored at `beta`, or without it at its own
    beta. The reports are not checked (`_score_table` checks for the
    public functions)."""
    kg = _kernel_times(model, reports)
    j_mean = np.array([report.j_mean for report in reports])
    if beta is None:
        beta = np.array([report.beta for report in reports])[:, None, None]
    # mv_cost_vector's floats, for a beta per report
    cost = model.reward - beta * _squared_deviation(model.reward, j_mean[:, None, None])
    score = np.where(model.feasible_mask(), cost + kg, np.nan)
    return score, kg


def _score_table(model: MdpModel, report: EvaluationReport, policy, what: str):
    """`_scores` of one report at model.beta, whatever beta it was
    evaluated at, once its deterministic or randomized policy is checked;
    a ValidationError when the report does not solve the
    Poisson equation of the policy's chain, whose P g is read off kernel @ g
    without gathering the chain."""
    if isinstance(policy, RandomizedPolicy):
        policy.validate_for(model)
    else:
        action = _check_policies(model, [policy])[0]
    (score,), (kg,) = _scores(model, [report], model.beta)
    if isinstance(policy, RandomizedPolicy):
        pg = (policy.theta * kg).sum(axis=1)
    else:
        pg = kg[np.arange(model.num_states), action]
    f, J, g = np.array([report.cost]), np.array([report.j_combined]), np.array([report.potential])
    residual, ok = poisson_residual(pg[None], f, J, g)
    if not ok[0]:
        raise ValidationError(
            f"evaluation report does not match the {what} (Poisson residual {residual[0]:.3e})"
        )
    return score, kg


def improvement_vector(
    model: MdpModel, report: EvaluationReport, policy: DeterministicPolicy
) -> ImprovementVector:
    """Q-scores of every feasible pair under the current policy's data."""
    score, _ = _score_table(model, report, policy, "policy")
    current = score[np.arange(model.num_states), policy.action]
    return ImprovementVector(score=score, current_score=current)


def predicted_difference(
    model: MdpModel,
    base_policy: DeterministicPolicy,
    base_report: EvaluationReport,
    new_policy: DeterministicPolicy,
) -> DifferenceBreakdown:
    """Exact difference J'_combined - J_combined via the difference formula.

    The linear part averages, under the new policy's stationary
    distribution, the score gain Q(i, d'(i)) - Q(i, d(i)) of the base
    policy's improvement scores: the change in transition-weighted
    potential plus the change in cost evaluated at the base policy's mean.
    The quadratic part accounts for the mean shift. The cross-check field
    `direct` comes from two independent evaluations.
    """
    score, _ = _score_table(model, base_report, base_policy, "base policy")
    new_report = evaluate(model, new_policy)
    rows = np.arange(model.num_states)
    bracket = score[rows, new_policy.action] - score[rows, base_policy.action]
    j_mean, beta = base_report.j_mean, model.beta
    linear = float(new_report.pi @ bracket)
    square = float(beta * (new_report.j_mean - j_mean) ** 2)
    direct = new_report.j_combined - base_report.j_combined
    return DifferenceBreakdown(
        linear_part=linear, square_part=square, total=linear + square, direct=direct
    )


def check_necessary_condition(
    model: MdpModel,
    report: EvaluationReport,
    policy: DeterministicPolicy,
    tol: float = VIOLATION_TOL,
):
    """Pairs (state, action, margin) whose score beats the current action.

    An empty list means no single-state deviation improves the score, the
    first-order optimality condition. It is sufficient for global optimality
    only when the long-run mean is policy-independent.
    """
    iv = improvement_vector(model, report, policy)
    margin = iv.score - iv.current_score[:, None]
    return [(int(i), int(a), float(margin[i, a])) for i, a in np.argwhere(margin > tol)]


def derivative_mixed(
    model: MdpModel,
    base_policy: DeterministicPolicy,
    base_report: EvaluationReport,
    alt_policy: DeterministicPolicy,
) -> float:
    """d J_combined / d delta at delta = 0 along the base-to-alt mixing line.

    Uses base-policy stationary data only: the base-weighted score gain
    Q(i, alt(i)) - Q(i, base(i)).
    """
    score, _ = _score_table(model, base_report, base_policy, "base policy")
    alt_policy.validate_for(model)
    rows = np.arange(model.num_states)
    bracket = score[rows, alt_policy.action] - score[rows, base_policy.action]
    return float(base_report.pi @ bracket)


def derivative_randomized(
    model: MdpModel, theta: RandomizedPolicy, theta_report: EvaluationReport
) -> np.ndarray:
    """Gradient of J_combined in the per-state action probabilities.

    grad[i, a] = pi(i) (sum_j p^a(i,j) g(j) + r(i,a) - beta r(i,a)^2
                 + 2 beta J_mean r(i,a)) for feasible pairs, NaN elsewhere.
    """
    _, kg = _score_table(model, theta_report, theta, "randomized policy")
    return _gradient(model, theta_report, kg)


def _gradient(model: MdpModel, report: EvaluationReport, kg: np.ndarray) -> np.ndarray:
    """derivative_randomized from the report of theta and its kernel @ g
    (`_kernel_times`), unchecked."""
    pi, j_mean, beta, r = report.pi, report.j_mean, model.beta, model.reward
    bracket = kg + r - beta * r**2 + 2.0 * beta * j_mean * r
    return np.where(model.feasible_mask(), pi[:, None] * bracket, np.nan)
