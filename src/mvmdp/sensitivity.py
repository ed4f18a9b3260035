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
from .evaluation import EvaluationReport, evaluate
from .model import (
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    induced_chain,
    induced_chain_randomized,
)

MATCH_TOL = 1e-8
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


def _require_report_matches(P, report: EvaluationReport, what: str) -> None:
    """The report must carry the Poisson solution of this very chain."""
    g, f, J = report.potential, report.cost, report.j_combined
    residual = float(np.max(np.abs(g - (f - J) - P @ g)))
    if residual > max(MATCH_TOL, 1e-12 * float(np.max(np.abs(g)))):
        raise ValidationError(
            f"evaluation report does not match the {what} (Poisson residual {residual:.3e})"
        )


def improvement_vector(
    model: MdpModel, report: EvaluationReport, policy: DeterministicPolicy
) -> ImprovementVector:
    """Q-scores of every feasible pair under the current policy's data."""
    P, _ = induced_chain(model, policy)
    _require_report_matches(P, report, "policy")
    j_mean, g, beta, r = report.j_mean, report.potential, model.beta, model.reward
    score = np.where(
        model.feasible_mask(), r - beta * (r - j_mean) ** 2 + model.kernel @ g, np.nan
    )
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
    distribution, the change in transition-weighted potential plus the
    change in cost evaluated at the base policy's mean. The quadratic part
    accounts for the mean shift. The cross-check field `direct` comes from
    two independent evaluations.
    """
    P, r = induced_chain(model, base_policy)
    _require_report_matches(P, base_report, "base policy")
    new_report = evaluate(model, new_policy)
    Pn, rn = induced_chain(model, new_policy)
    j_mean, g, beta = base_report.j_mean, base_report.potential, model.beta
    bracket = (
        (Pn - P) @ g
        + rn
        - beta * (rn - j_mean) ** 2
        - r
        + beta * (r - j_mean) ** 2
    )
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

    Uses base-policy stationary data only.
    """
    P, r = induced_chain(model, base_policy)
    _require_report_matches(P, base_report, "base policy")
    alt_policy.validate_for(model)
    Pa, ra = induced_chain(model, alt_policy)
    j_mean, g, beta = base_report.j_mean, base_report.potential, model.beta
    bracket = (
        (Pa - P) @ g
        + ra
        - beta * (ra - j_mean) ** 2
        - r
        + beta * (r - j_mean) ** 2
    )
    return float(base_report.pi @ bracket)


def derivative_randomized(
    model: MdpModel, theta: RandomizedPolicy, theta_report: EvaluationReport
) -> np.ndarray:
    """Gradient of J_combined in the per-state action probabilities.

    grad[i, a] = pi(i) (sum_j p^a(i,j) g(j) + r(i,a) - beta r(i,a)^2
                 + 2 beta J_mean r(i,a)) for feasible pairs, NaN elsewhere.
    """
    theta.validate_for(model)
    P, _, _ = induced_chain_randomized(model, theta)
    _require_report_matches(P, theta_report, "randomized policy")
    pi, g, j_mean, beta = (
        theta_report.pi,
        theta_report.potential,
        theta_report.j_mean,
        model.beta,
    )
    r = model.reward
    bracket = model.kernel @ g + r - beta * r**2 + 2.0 * beta * j_mean * r
    return np.where(model.feasible_mask(), pi[:, None] * bracket, np.nan)
