"""Exact policy evaluation for the long-run mean-variance metric.

Evaluating a policy yields the stationary distribution, the long-run mean
J_mean, the steady-state variance J_var, the combined metric
J_combined = J_mean - beta * J_var, the mean-variance cost vector, and the
performance potentials that solve the associated Poisson equation.
"""
from __future__ import annotations

import ctypes
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ValidationError
from .model import (
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    _check_beta,
    _check_rows,
    _closed_classes,
    _policy_support,
    _support,
    induced_chain,
    induced_chain_randomized,
)

STATIONARY_TOL = 1e-10
CONSISTENCY_TOL = 1e-9
POISSON_TOL = 1e-8
# Below this many states, starting a second thread costs more than the
# factorization it overlaps (_stationary_and_pinned): on 2 cores with one
# BLAS thread the two break even near S = 216 and threads win from S = 246.
OVERLAP_MIN_STATES = 240


@dataclass(frozen=True)
class EvaluationReport:
    """Everything exact evaluation produces for one policy.

    potential solves g = cost - j_combined * 1 + P g with g[0] = 0;
    potential_mean and potential_var are the potentials of the plain reward
    and of the squared-deviation cost, so that
    potential = potential_mean - beta * potential_var.
    """

    pi: np.ndarray
    j_mean: float
    j_var: float
    j_combined: float
    cost: np.ndarray
    potential: np.ndarray
    potential_mean: np.ndarray
    potential_var: np.ndarray
    beta: float


def _check_stochastic(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {P.shape}")
    _check_rows(P, "transition row {}")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix.

    Solved as the balance system with the last balance equation replaced by
    the normalization row. Raises when the distribution is not unique, i.e.
    when the support graph has two or more closed communicating classes.
    """
    return _stationary(_check_stochastic(P))


def _stationary(P: np.ndarray, support=None) -> np.ndarray:
    """stationary_distribution for a P already known to be row-stochastic,
    whose support graph (`_support`) may be given: a policy's is gathered
    from the model's successor table, with no scan of P.

    The balance matrix P^T - I with its last row set to ones is the
    transpose of a row-major copy of P with 1 taken off its diagonal and its
    last column set to ones, so that copy is the column-major matrix dgesv
    needs, with the floats np.linalg.solve would factor.
    """
    S = P.shape[0]
    if _closed_classes(*(_support(P) if support is None else support)) != 1:
        raise EvaluationError(
            "stationary distribution is not unique: the chain has multiple "
            "closed communicating classes"
        )
    X = P.copy()
    X.flat[:: S + 1] -= 1.0
    X[:, -1] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        pi = _LUSolver(X.T).solve(b)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"stationary solve failed: {exc}") from exc
    residual = np.max(np.abs(pi @ P - pi))
    if residual > STATIONARY_TOL:
        raise EvaluationError(
            f"stationary solve residual {residual:.3e} exceeds {STATIONARY_TOL}"
        )
    # transient states may come out as tiny negative round-off
    pi = np.where((pi < 0) & (pi > -STATIONARY_TOL), 0.0, pi)
    if np.any(pi < 0):
        raise EvaluationError("stationary solve produced a negative probability")
    return pi


def long_run_mean(pi: np.ndarray, r: np.ndarray) -> float:
    pi = np.asarray(pi, dtype=float)
    r = np.asarray(r, dtype=float)
    if pi.shape != r.shape:
        raise ValidationError(f"length mismatch: pi has {pi.shape}, r has {r.shape}")
    return float(pi @ r)


def steady_state_variance(
    pi: np.ndarray,
    r: np.ndarray,
    j_mean: float,
    second_moment: np.ndarray | None = None,
) -> float:
    """Long-run variance of the instantaneous reward around j_mean.

    For a randomized policy pass the per-state second-moment row; the
    variance then mixes the per-action quadratics instead of squaring the
    mixed reward.
    """
    pi = np.asarray(pi, dtype=float)
    r = np.asarray(r, dtype=float)
    if pi.shape != r.shape:
        raise ValidationError(f"length mismatch: pi has {pi.shape}, r has {r.shape}")
    if second_moment is not None:
        second_moment = np.asarray(second_moment, dtype=float)
        if second_moment.shape != pi.shape:
            raise ValidationError(
                f"length mismatch: pi has {pi.shape}, second_moment has {second_moment.shape}"
            )
    return float(pi @ _squared_deviation(r, j_mean, second_moment))


def _squared_deviation(r: np.ndarray, j_mean: float, m2: np.ndarray | None = None) -> np.ndarray:
    """(r - j_mean)**2 per state, the variance part of the mean-variance
    cost; for a randomized policy with per-state second-moment row m2, its
    mixture over actions m2 - 2 j_mean r + j_mean**2."""
    if m2 is None:
        return (r - j_mean) ** 2
    return m2 - 2.0 * j_mean * r + j_mean**2


def combined_metric(j_mean: float, j_var: float, beta: float) -> float:
    _check_beta(beta)
    return float(j_mean - beta * j_var)


def mv_cost_vector(r: np.ndarray, j_mean: float, beta: float) -> np.ndarray:
    """Mean-variance cost f(i) = r(i) - beta * (r(i) - j_mean)**2.

    j_mean must be the long-run mean of the same policy that produced r;
    the quadratic penalty couples every state to the global mean.
    """
    _check_beta(beta)
    r = np.asarray(r, dtype=float)
    return r - beta * _squared_deviation(r, j_mean)


def poisson_residual(
    Pg: np.ndarray, f: np.ndarray, J: float, g: np.ndarray
) -> tuple[float, bool]:
    """Max residual of the Poisson equation g = f - J + P g, given Pg = P @ g,
    and whether it is within tolerance.

    The tolerance is scale-aware: badly mixing chains have huge potentials
    and a proportionally larger attainable residual.
    """
    residual = float(np.max(np.abs(g - (f - J) - Pg)))
    return residual, residual <= max(POISSON_TOL, 1e-12 * float(np.max(np.abs(g))))


def _numpy_lapack():
    """(dgesv, dgetrs, get_num_threads) from the OpenBLAS numpy.linalg.solve
    itself calls, or None when this numpy build exposes no such symbols.

    numpy >= 2 wheels link an ILP64 OpenBLAS whose symbols carry the
    scipy_ prefix and the 64_ suffix and take int64 arguments. Arrays are
    passed as bare addresses: numpy's ctypes argument types cost more than
    the solve itself at S=36.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        gesv, getrs = lib.scipy_dgesv_64_, lib.scipy_dgetrs_64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    integer, address = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # dgesv(n, nrhs, a, lda, ipiv, b, ldb, info)
    gesv.argtypes = [integer, integer, address, integer, address, address, integer, integer]
    # dgetrs(trans, n, nrhs, a, lda, ipiv, b, ldb, info)
    getrs.argtypes = [
        ctypes.c_char_p, integer, integer, address, integer, address, address, integer, integer
    ]
    gesv.restype = getrs.restype = None
    threads.argtypes, threads.restype = [], ctypes.c_int
    return gesv, getrs, threads


_LAPACK = _numpy_lapack()


class _LUSolver:
    """x = M^-1 b for one right-hand side b at a time, factoring M once.

    Every dense solve of this module goes through it: the stationary
    balance system and the Poisson systems. M must be a column-major
    float64 matrix, which the callers build in place, so dgesv gets it
    without the column-major copy np.linalg.solve makes first. The
    constructor factors M with dgesv, the call np.linalg.solve makes, on a
    zero right-hand side: it overwrites M with its LU factors, and every
    solve back-substitutes with them (dgetrs). Each b is overwritten with
    its solution, which has the bits of np.linalg.solve(M, b).
    Factoring with dgetrf would not keep them: with more than one BLAS
    thread, OpenBLAS factors differently in dgetrf than in a one-column
    dgesv from N = 100 up, and the two round differently. A singular M raises
    np.linalg.LinAlgError("Singular matrix") at every solve, as
    np.linalg.solve does. Without the LAPACK symbols nothing is factored
    and each b gets its own np.linalg.solve.
    """

    def __init__(self, M: np.ndarray):
        S = M.shape[0]
        if M.shape != (S, S) or M.dtype != np.float64 or not M.flags.f_contiguous:
            raise ValueError(f"need a square column-major float64 matrix, got {M.dtype} {M.shape}")
        # self keeps M and ipiv alive as long as their addresses are used
        self.M = M
        self.lapack = _LAPACK
        if self.lapack is None:
            return
        self.ipiv = np.empty(S, dtype=np.int64)
        self.addresses = M.ctypes.data, self.ipiv.ctypes.data
        self.n = ctypes.c_int64(S)
        n, one, info = ctypes.byref(self.n), ctypes.byref(ctypes.c_int64(1)), ctypes.c_int64()
        # one column, as np.linalg.solve passes, so OpenBLAS factors as it does there
        zero = np.zeros(S)
        lu, ipiv = self.addresses
        self.lapack[0](n, one, lu, n, ipiv, zero.ctypes.data, n, ctypes.byref(info))
        self.singular = info.value > 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.lapack is None:
            return np.linalg.solve(self.M, b)
        if b.shape != (self.n.value,) or b.dtype != np.float64 or not b.flags.c_contiguous:
            raise ValueError(f"need a contiguous float64 vector, got {b.dtype} {b.shape}")
        if self.singular:
            raise np.linalg.LinAlgError("Singular matrix")
        n, one, info = ctypes.byref(self.n), ctypes.byref(ctypes.c_int64(1)), ctypes.c_int64()
        lu, ipiv = self.addresses
        self.lapack[1](b"N", n, one, lu, n, ipiv, b.ctypes.data, n, ctypes.byref(info))
        return b


def _identity_minus(P: np.ndarray) -> np.ndarray:
    """I - P as a new column-major array, with the floats of subtracting P
    from a dense identity but without building one. P is copied into
    column-major order first and negated there as 0.0 - p, on contiguous
    memory: subtracting straight into the transposed layout took 1.7
    times as long at S=1206 on a 2-vCPU host, for the same floats."""
    S = P.shape[0]
    M = np.empty((S, S), order="F")
    np.copyto(M, P)
    np.subtract(0.0, M, out=M)
    d = np.arange(S)
    M[d, d] = 1.0 - P[d, d]
    return M


def _pinned_solver(P: np.ndarray) -> _LUSolver:
    """The factored pinned Poisson matrix: I - P with row 0 replaced by e_0."""
    M = _identity_minus(P)
    M[0, :] = 0.0
    M[0, 0] = 1.0
    return _LUSolver(M)


def _idle_cpu() -> bool:
    """Whether a CPU this process may run on idles while one BLAS call runs:
    the process may use at least twice as many CPUs as BLAS threads."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return cpus >= 2 * (_LAPACK[2]() if _LAPACK else 1)


def _stationary_and_pinned(P: np.ndarray, support=None) -> tuple[np.ndarray, _LUSolver]:
    """(_stationary(P, support), _pinned_solver(P)), or _stationary's
    exception.

    The pinned matrix needs only P, so from OVERLAP_MIN_STATES states up,
    when a CPU would idle, a second thread factors it while this one solves
    for pi: LAPACK runs without the interpreter lock. Each factorization is
    the same call either way, so the bits are the same. The second thread
    has ended when this returns or raises.
    """
    if P.shape[0] < OVERLAP_MIN_STATES or not _idle_cpu():
        pi = _stationary(P, support)
        return pi, _pinned_solver(P)
    with ThreadPoolExecutor(max_workers=1) as worker:
        pinned = worker.submit(_pinned_solver, P)
        pi = _stationary(P, support)
    return pi, pinned.result()


def _solve_potentials(P: np.ndarray, pi: np.ndarray, pinned: _LUSolver, *rhs) -> list:
    """Solve (I - P) g = f - J with g[0] = 0 for each (f, J) in rhs, given
    _pinned_solver(P).

    The pinned system (row 0 of I - P replaced by e_0) is nonsingular for
    irreducible chains. When state 0 is transient in a unichain it becomes
    singular; the normalized system (I - P + 1 pi^T) g = f - J is then
    solved instead and shifted to g[0] = 0. Both matrices start from the
    column-major I - P; adding pi to each of its rows gives the floats of
    adding 1 pi^T. Each is factored at most once per call, but each
    right-hand side gets its own back-substitution: one multi-column solve
    changes the low bits of the potentials.
    """
    normalized = None
    potentials = []
    for f, J in rhs:
        consistency = abs(float(pi @ f) - J)
        if consistency > CONSISTENCY_TOL:
            raise EvaluationError(
                f"supplied average {J!r} disagrees with pi.f by {consistency:.3e}"
            )
        b = f - J
        b[0] = 0.0
        try:
            g = pinned.solve(b)
        except np.linalg.LinAlgError:
            g = None
        if g is None or not poisson_residual(P @ g, f, J, g)[1]:
            if normalized is None:
                M = _identity_minus(P)
                M += pi
                normalized = _LUSolver(M)
            try:
                g = normalized.solve(f - J)
            except np.linalg.LinAlgError as exc:
                raise EvaluationError(f"potential solve failed: {exc}") from exc
            g = g - g[0]
            residual, ok = poisson_residual(P @ g, f, J, g)
            if not ok:
                raise EvaluationError(f"potential residual {residual:.3e} is too large")
        potentials.append(g)
    return potentials


def solve_poisson(P: np.ndarray, f: np.ndarray, J: float) -> np.ndarray:
    """Potential g with g[0] = 0 solving g = f - J + P g.

    J must equal pi.f within 1e-9; the solution is unique once g[0] is
    pinned.
    """
    P = _check_stochastic(P)
    f = np.asarray(f, dtype=float)
    if f.shape != (P.shape[0],):
        raise ValidationError(f"cost length {f.shape} does not match P {P.shape}")
    return _solve_potentials(P, *_stationary_and_pinned(P), (f, float(J)))[0]


def _policy_chain(model: MdpModel, policy):
    """(P, r, m2, support) of the chain a deterministic or randomized policy
    induces: m2 is the second-moment row of a randomized policy, support
    the support graph of a deterministic one (`_policy_support`), and both
    are None otherwise.

    A deterministic chain is made of model rows that already passed
    `_check_rows`, the rule of _check_stochastic, so only a randomized
    mixture is checked again.
    """
    if isinstance(policy, DeterministicPolicy):
        return *induced_chain(model, policy), None, _policy_support(model, policy.action)
    if isinstance(policy, RandomizedPolicy):
        P, r, m2 = induced_chain_randomized(model, policy)
        return _check_stochastic(P), r, m2, None
    raise ValidationError(f"cannot evaluate policy of type {type(policy).__name__}")


def evaluate(model: MdpModel, policy) -> EvaluationReport:
    """Full exact evaluation of a deterministic or randomized policy."""
    return _evaluate_chain(*_policy_chain(model, policy), model.beta)


def _evaluate_chain(P: np.ndarray, r: np.ndarray, m2, support, beta: float) -> EvaluationReport:
    """evaluate, given the policy's chain from _policy_chain."""
    pi, pinned = _stationary_and_pinned(P, support)
    j_mean = long_run_mean(pi, r)
    sq = _squared_deviation(r, j_mean, m2)
    j_var = float(pi @ sq)
    j_comb = combined_metric(j_mean, j_var, beta)
    cost = r - beta * sq
    g, g_mean, g_var = _solve_potentials(P, pi, pinned, (cost, j_comb), (r, j_mean), (sq, j_var))
    return EvaluationReport(
        pi=pi,
        j_mean=j_mean,
        j_var=j_var,
        j_combined=j_comb,
        cost=cost,
        potential=g,
        potential_mean=g_mean,
        potential_var=g_var,
        beta=beta,
    )


def _with_beta(
    model: MdpModel, policy: DeterministicPolicy, report: EvaluationReport
) -> EvaluationReport:
    """evaluate(model, policy), given the policy's report at another beta.

    pi, j_mean, j_var and the mean and variance potentials do not depend on
    beta and are copied; the combined metric, the cost and the combined
    potential are recomputed with evaluate's own expressions, so the result
    is the same floats (or the same EvaluationError) evaluate gives.
    """
    P, r = induced_chain(model, policy)
    j_comb = combined_metric(report.j_mean, report.j_var, model.beta)
    cost = mv_cost_vector(r, report.j_mean, model.beta)
    (g,) = _solve_potentials(P, report.pi, _pinned_solver(P), (cost, j_comb))
    return dataclasses.replace(
        report, j_combined=j_comb, cost=cost, potential=g, beta=model.beta
    )


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready dict of the report's fields, in their order and under
    their names; arrays become lists of floats."""
    values = ((f.name, getattr(report, f.name)) for f in dataclasses.fields(report))
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in values
    }
