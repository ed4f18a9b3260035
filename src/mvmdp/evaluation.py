"""Exact policy evaluation for the long-run mean-variance metric.

Evaluating a policy yields the stationary distribution, the long-run mean
J_mean, the steady-state variance J_var, the combined metric
J_combined = J_mean - beta * J_var, the mean-variance cost vector, and the
performance potentials that solve the associated Poisson equation.

Every evaluation runs on the CSR rows of the policy's chain (`_Chain`):
only the matrices LAPACK factors are dense, scattered from the rows.
"""
from __future__ import annotations

import ctypes
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, ValidationError
from .model import (
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    _check_beta,
    _check_rows,
    _closed_classes,
    _policy_rows,
    _positive_rows,
    _square,
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


class _Chain(NamedTuple):
    """The transition matrix P of a chain as its CSR rows, the one form
    evaluation runs on: row i of P holds values[indptr[i]:indptr[i + 1]] at
    the columns cols[indptr[i]:indptr[i + 1]], in increasing order. Entry k
    lies in row rows[k], at position at[k] = rows[k] * S + cols[k] of a
    row-major P. Every entry that is not +0.0 is listed (a -0.0 is kept, as
    `model._kept` keeps it), so the entries written into zeros give P's
    floats. The threshold policy's chain at B=200 has 7,236 entries of its
    1,454,436."""

    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    at: np.ndarray


def _csr_chain(indptr: np.ndarray, cols: np.ndarray, values: np.ndarray) -> _Chain:
    """The _Chain of the CSR (indptr, cols, values)."""
    S = indptr.size - 1
    rows = np.repeat(np.arange(S), np.diff(indptr))
    return _Chain(indptr, rows, cols, values, rows * S + cols)


def _dense_chain(P: np.ndarray) -> _Chain:
    """The _Chain of the dense float64 P: its entries whose bits are not all
    zero, which are those `model._kept` keeps. A P not in row-major order is
    copied into it first."""
    S = P.shape[0]
    P = np.ascontiguousarray(P)
    at = np.flatnonzero(P.view(np.int64))
    rows = at // S
    return _Chain(np.searchsorted(rows, np.arange(S + 1)), rows, at - rows * S, P.reshape(-1)[at], at)


def _times(chain: _Chain, x: np.ndarray) -> np.ndarray:
    """P @ x, summed row by row; every row of a stochastic P has an entry,
    which np.add.reduceat needs."""
    return np.add.reduceat(chain.values * x[chain.cols], chain.indptr[:-1])


def _check_stochastic(P: np.ndarray) -> np.ndarray:
    P = _square(P)
    _check_rows(P, "transition row {}")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix.

    Solved as the balance system with the last balance equation replaced by
    the normalization row. Raises when the distribution is not unique, i.e.
    when the support graph has two or more closed communicating classes.
    """
    return _stationary(_dense_chain(_check_stochastic(P)))


def _stationary(chain: _Chain) -> np.ndarray:
    """stationary_distribution of a row-stochastic P given as its rows.

    Its support graph is the rows' entries > 0. The balance matrix P^T - I
    with its last row set to ones is the transpose of a row-major P with 1
    taken off its diagonal and its last column set to ones. That matrix is
    scattered from the rows into zeros, so its transpose is the
    column-major matrix dgesv needs, with the floats np.linalg.solve would
    factor. The residual pi P - pi, a pass/fail gate, is a sparse product.
    """
    S = chain.indptr.size - 1
    if _closed_classes(*_positive_rows(chain.indptr, chain.cols, chain.values)[:2]) != 1:
        raise EvaluationError(
            "stationary distribution is not unique: the chain has multiple "
            "closed communicating classes"
        )
    X = np.zeros((S, S))
    flat = X.reshape(-1)
    flat[chain.at] = chain.values
    flat[:: S + 1] -= 1.0
    X[:, -1] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        pi = _LUSolver(X.T).solve(b)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"stationary solve failed: {exc}") from exc
    piP = np.bincount(chain.cols, pi[chain.rows] * chain.values, minlength=S)
    residual = np.abs(piP - pi).max()
    if residual > STATIONARY_TOL:
        raise EvaluationError(
            f"stationary solve residual {residual:.3e} exceeds {STATIONARY_TOL}"
        )
    negative = pi < 0
    if negative.any():
        # transient states may come out as tiny negative round-off
        pi = np.where(negative & (pi > -STATIONARY_TOL), 0.0, pi)
        if (pi < 0).any():
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

    The tolerance scales with the largest of max|g|, max|f| and |J|, and is
    at least POISSON_TOL: badly mixing chains have huge potentials, and
    large rewards large costs, with a proportionally larger attainable
    residual.
    """
    residual = float(np.abs(g - (f - J) - Pg).max())
    if residual <= POISSON_TOL:
        return residual, True
    scale = max(float(np.max(np.abs(g))), float(np.max(np.abs(f))), abs(J))
    return residual, residual <= 1e-12 * scale


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


def _identity_minus(chain: _Chain) -> np.ndarray:
    """I - P as a new column-major array, with the floats of subtracting P
    from a dense identity but without building one or a dense P: each
    entry p of the rows is scattered into zeros as 0.0 - p, then 1.0 is
    added on the diagonal. 1.0 + (0.0 - p) is 1.0 - p exactly (0.0 - p
    negates p exactly, and a -0.0 or a missing entry gives 1.0)."""
    S = chain.indptr.size - 1
    M = np.zeros((S, S), order="F")
    M[chain.rows, chain.cols] = 0.0 - chain.values
    M.reshape(-1, order="F")[:: S + 1] += 1.0
    return M


def _pinned_solver(chain: _Chain) -> _LUSolver:
    """The factored pinned Poisson matrix: I - P with row 0 replaced by e_0."""
    M = _identity_minus(chain)
    M[0, :] = 0.0
    M[0, 0] = 1.0
    return _LUSolver(M)


def _idle_cpu() -> bool:
    """Whether a CPU this process may run on idles while one BLAS call runs:
    the process may use at least twice as many CPUs as BLAS threads."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return cpus >= 2 * (_LAPACK[2]() if _LAPACK else 1)


def _stationary_and_pinned(chain: _Chain) -> tuple[np.ndarray, _LUSolver]:
    """(_stationary(chain), _pinned_solver(chain)), or _stationary's
    exception.

    The pinned matrix needs only P, so from OVERLAP_MIN_STATES states up,
    when a CPU would idle, a second thread factors it while this one solves
    for pi: LAPACK runs without the interpreter lock. Each factorization is
    the same call either way, so the bits are the same. The second thread
    has ended when this returns or raises.
    """
    if chain.indptr.size - 1 < OVERLAP_MIN_STATES or not _idle_cpu():
        pi = _stationary(chain)
        return pi, _pinned_solver(chain)
    with ThreadPoolExecutor(max_workers=1) as worker:
        pinned = worker.submit(_pinned_solver, chain)
        pi = _stationary(chain)
    return pi, pinned.result()


def _solve_potentials(chain: _Chain, pi: np.ndarray, pinned: _LUSolver, *rhs) -> list:
    """Solve (I - P) g = f - J with g[0] = 0 for each (f, J) in rhs, given
    _pinned_solver(chain).

    J must equal pi.f within CONSISTENCY_TOL times max(1, max|f|). The
    pinned system (row 0 of I - P replaced by e_0) is nonsingular for
    irreducible chains. When state 0 is transient in a unichain it becomes
    singular; the normalized system (I - P + 1 pi^T) g = f - J is then
    solved instead and shifted to g[0] = 0. Both matrices start from the
    column-major I - P; adding pi to each of its rows gives the floats of
    adding 1 pi^T. Each is factored at most once per call, but each
    right-hand side gets its own back-substitution: one multi-column solve
    changes the low bits of the potentials. The residual gate
    (`poisson_residual`) takes P g as a sparse product.
    """
    normalized = None
    potentials = []
    for f, J in rhs:
        consistency = abs(float(pi @ f) - J)
        # beyond CONSISTENCY_TOL * max(1, max|f|), with f scanned only past 1
        if consistency > CONSISTENCY_TOL and consistency > CONSISTENCY_TOL * np.abs(f).max():
            raise EvaluationError(
                f"supplied average {J!r} disagrees with pi.f by {consistency:.3e}"
            )
        b = f - J
        b[0] = 0.0
        try:
            g = pinned.solve(b)
        except np.linalg.LinAlgError:
            g = None
        if g is None or not poisson_residual(_times(chain, g), f, J, g)[1]:
            if normalized is None:
                M = _identity_minus(chain)
                M += pi
                normalized = _LUSolver(M)
            try:
                g = normalized.solve(f - J)
            except np.linalg.LinAlgError as exc:
                raise EvaluationError(f"potential solve failed: {exc}") from exc
            g = g - g[0]
            residual, ok = poisson_residual(_times(chain, g), f, J, g)
            if not ok:
                raise EvaluationError(f"potential residual {residual:.3e} is too large")
        potentials.append(g)
    return potentials


def solve_poisson(P: np.ndarray, f: np.ndarray, J: float) -> np.ndarray:
    """Potential g with g[0] = 0 solving g = f - J + P g.

    J must equal pi.f within 1e-9 times max(1, max|f|); the solution is
    unique once g[0] is pinned.
    """
    P = _check_stochastic(P)
    f = np.asarray(f, dtype=float)
    if f.shape != (P.shape[0],):
        raise ValidationError(f"cost length {f.shape} does not match P {P.shape}")
    chain = _dense_chain(P)
    return _solve_potentials(chain, *_stationary_and_pinned(chain), (f, float(J)))[0]


def _policy_chain(model: MdpModel, policy):
    """(chain, r, m2) of the chain a deterministic or randomized policy
    induces: m2 is the second-moment row of a randomized policy, None for
    a deterministic one.

    A deterministic chain is one gather of the model's CSR rows
    (`_policy_rows`), made of rows that already passed `_check_rows`, the
    rule of _check_stochastic. A randomized mixture is built dense, checked
    again and converted once.
    """
    if isinstance(policy, DeterministicPolicy):
        policy.validate_for(model)
        r = model.reward[np.arange(model.num_states), policy.action]
        return _csr_chain(*_policy_rows(model, policy.action)), r, None
    if isinstance(policy, RandomizedPolicy):
        P, r, m2 = induced_chain_randomized(model, policy)
        return _dense_chain(_check_stochastic(P)), r, m2
    raise ValidationError(f"cannot evaluate policy of type {type(policy).__name__}")


def evaluate(model: MdpModel, policy) -> EvaluationReport:
    """Full exact evaluation of a deterministic or randomized policy."""
    return _evaluate_chain(*_policy_chain(model, policy), model.beta)


def _evaluate_chain(chain: _Chain, r: np.ndarray, m2, beta: float) -> EvaluationReport:
    """evaluate, given the policy's chain from _policy_chain."""
    pi, pinned = _stationary_and_pinned(chain)
    j_mean = long_run_mean(pi, r)
    sq = _squared_deviation(r, j_mean, m2)
    j_var = float(pi @ sq)
    j_comb = combined_metric(j_mean, j_var, beta)
    cost = r - beta * sq
    g, g_mean, g_var = _solve_potentials(chain, pi, pinned, (cost, j_comb), (r, j_mean), (sq, j_var))
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
    chain, r, _ = _policy_chain(model, policy)
    j_comb = combined_metric(report.j_mean, report.j_var, model.beta)
    cost = mv_cost_vector(r, report.j_mean, model.beta)
    (g,) = _solve_potentials(chain, report.pi, _pinned_solver(chain), (cost, j_comb))
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
