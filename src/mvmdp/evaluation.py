"""Exact policy evaluation for the long-run mean-variance metric.

Evaluating a policy yields the stationary distribution, the long-run mean
J_mean, the steady-state variance J_var, the combined metric
J_combined = J_mean - beta * J_var, the mean-variance cost vector, and the
performance potentials that solve the associated Poisson equation.

Every evaluation runs on the CSR rows of the policy's chain (`_Chain`):
only the matrices LAPACK factors are dense, scattered from the rows.
Policies are evaluated in batches, a single policy as a batch of one:
the sparse work and the pass/fail gates run once over the batch, the
dense work one chain at a time.
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
    _check_policies,
    _check_rows,
    _closed_class_counts,
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
    """The transition matrices P of a batch of chains on `size` states
    each, as the CSR rows of their disjoint union: the one form evaluation
    runs on. State i of chain m is state m * size + i of the union, and a
    single chain is a batch of one. Row n of the union holds
    values[indptr[n]:indptr[n + 1]] at the columns
    cols[indptr[n]:indptr[n + 1]], in increasing order. Entry k lies in
    row rows[k], at position at[k] = i * size + j of its own chain's
    row-major P, where i and j are its row and column in that chain. Every
    entry that is not +0.0 is listed (a -0.0 is kept, as `model._kept`
    keeps it), so the entries written into zeros give P's floats. The
    threshold policy's chain at B=200 has 7,236 entries of its 1,454,436."""

    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    at: np.ndarray
    size: int

    def entries(self, m: int):
        """(at, values) of the entries of chain m."""
        lo, hi = self.indptr[m * self.size], self.indptr[(m + 1) * self.size]
        return self.at[lo:hi], self.values[lo:hi]


def _csr_chain(indptr: np.ndarray, cols: np.ndarray, values: np.ndarray, size: int) -> _Chain:
    """The _Chain of the CSR (indptr, cols, values) holding the rows of
    chains on `size` states one after the other, each with its own column
    numbers."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    local = rows % size
    return _Chain(indptr, rows, cols + (rows - local), values, local * size + cols, size)


def _dense_chain(P: np.ndarray) -> _Chain:
    """The _Chain of the dense float64 P: its entries whose bits are not all
    zero, which are those `model._kept` keeps. A P not in row-major order is
    copied into it first."""
    S = P.shape[0]
    P = np.ascontiguousarray(P)
    at = np.flatnonzero(P.view(np.int64))
    rows = at // S
    indptr = np.searchsorted(rows, np.arange(S + 1))
    return _Chain(indptr, rows, at - rows * S, P.reshape(-1)[at], at, S)


def _times(chain: _Chain, x: np.ndarray) -> np.ndarray:
    """P @ x, summed row by row; every row of a stochastic P has an entry,
    which np.add.reduceat needs. For a batch, x and the result hold the
    chains' vectors one after the other; along the last axis of a 2-D x
    each row is summed as a 1-D x would be."""
    return np.add.reduceat(chain.values * x[..., chain.cols], chain.indptr[:-1], axis=-1)


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
    return _sole(_solve_chains(_dense_chain(_check_stochastic(P)), [None]))[0]


def _sole(outcomes: list):
    """The outcome of a batch of one: its result, or its exception raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _balance_solve(chain: _Chain, m: int) -> np.ndarray:
    """Chain m's pi from the balance system, before any check.

    The balance matrix P^T - I with its last row set to ones is the
    transpose of a row-major P with 1 taken off its diagonal and its last
    column set to ones. That matrix is scattered from the rows into zeros,
    so its transpose is the column-major matrix dgesv needs, with the
    floats np.linalg.solve would factor. Raises np.linalg.LinAlgError when
    it is singular.
    """
    S = chain.size
    at, values = chain.entries(m)
    X = np.zeros((S, S))
    flat = X.reshape(-1)
    flat[at] = values
    flat[:: S + 1] -= 1.0
    X[:, -1] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    return _LUSolver(X.T).solve(b)


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


def poisson_residual(Pg: np.ndarray, f: np.ndarray, J: np.ndarray, g: np.ndarray):
    """Per row, the max residual of the Poisson equation g = f - J + P g,
    and whether it is within tolerance. Pg, f and g stack one vector per
    chain, Pg = P @ g, and J holds the chains' averages.

    The tolerance scales with the largest of max|g|, max|f| and |J|, and is
    at least POISSON_TOL: badly mixing chains have huge potentials, and
    large rewards large costs, with a proportionally larger attainable
    residual.
    """
    residual = np.abs(g - (f - J[:, None]) - Pg).max(axis=1)
    ok = residual <= POISSON_TOL
    if not ok.all():
        scale = np.maximum(np.maximum(np.abs(g).max(axis=1), np.abs(f).max(axis=1)), np.abs(J))
        ok |= residual <= 1e-12 * scale
    return residual, ok


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


def _identity_minus(chain: _Chain, m: int) -> np.ndarray:
    """I - P of chain m as a new column-major array, with the floats of
    subtracting P from a dense identity but without building one or a
    dense P: each entry p of the rows is scattered into zeros as 0.0 - p,
    then 1.0 is added on the diagonal. 1.0 + (0.0 - p) is 1.0 - p exactly
    (0.0 - p negates p exactly, and a -0.0 or a missing entry gives 1.0)."""
    S = chain.size
    at, values = chain.entries(m)
    M = np.zeros((S, S), order="F")
    M[np.divmod(at, S)] = 0.0 - values
    M.reshape(-1, order="F")[:: S + 1] += 1.0
    return M


def _pinned_solver(chain: _Chain, m: int) -> _LUSolver:
    """The factored pinned Poisson matrix of chain m: I - P with row 0
    replaced by e_0."""
    M = _identity_minus(chain, m)
    M[0, :] = 0.0
    M[0, 0] = 1.0
    return _LUSolver(M)


def _idle_cpu() -> bool:
    """Whether a CPU this process may run on idles while one BLAS call runs:
    the process may use at least twice as many CPUs as BLAS threads."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return cpus >= 2 * (_LAPACK[2]() if _LAPACK else 1)


def _stationary_and_pinned(chain: _Chain, m: int) -> tuple[np.ndarray, _LUSolver]:
    """(_balance_solve(chain, m), _pinned_solver(chain, m)), or the
    balance solve's exception.

    The pinned matrix needs only P, so from OVERLAP_MIN_STATES states up,
    when a CPU would idle, a second thread factors it while this one solves
    for pi: LAPACK runs without the interpreter lock. Each factorization is
    the same call either way, so the bits are the same. The second thread
    has ended when this returns or raises.
    """
    if chain.size < OVERLAP_MIN_STATES or not _idle_cpu():
        pi = _balance_solve(chain, m)
        return pi, _pinned_solver(chain, m)
    with ThreadPoolExecutor(max_workers=1) as worker:
        pinned = worker.submit(_pinned_solver, chain, m)
        pi = _balance_solve(chain, m)
    return pi, pinned.result()


def _solve_chains(chain: _Chain, pis: list, rhs=None) -> list:
    """For each chain m of the batch: (pi, potentials), or the
    EvaluationError its evaluation raises.

    pis[m] is chain m's stationary distribution when it is known, and None
    when it is to be solved. A solved pi must be unique: the support graph
    (the rows' entries > 0) has one closed class. Then it must pass the
    residual gate on pi P - pi, and it must not be negative beyond
    round-off, which is set to 0 on transient states. rhs(m, pi) lists
    chain m's right-hand sides (f, J); each potential solves
    (I - P) g = f - J with g[0] = 0, and J must equal pi.f within
    CONSISTENCY_TOL times max(1, max|f|). Without rhs only pi is solved.

    The pinned system (row 0 of I - P replaced by e_0) is nonsingular for
    irreducible chains. When state 0 is transient in a unichain it becomes
    singular; a potential that fails the residual gate (`poisson_residual`)
    is then solved from the normalized system (I - P + 1 pi^T) g = f - J
    instead and shifted to g[0] = 0. Both matrices start from the
    column-major I - P; adding pi to each of its rows gives the floats of
    adding 1 pi^T. Each is factored at most once per chain, but each
    right-hand side gets its own back-substitution: one multi-column solve
    changes the low bits of the potentials.

    The sparse work is done once for the batch: one strong-components pass
    over the union counts every chain's closed classes, before any dense
    work, and the products pi P and P g of the gates run over the union's
    rows. The dense work is done chain by chain: its balance and pinned
    matrices are built, factored and solved, and dropped before the next
    chain's are built.
    So at most two S x S matrices are held at once, as for a single chain.
    Each chain's gates are read in the order a single evaluation reads
    them, and the first that fails gives its error.
    """
    M, S = len(pis), chain.size
    out = [None] * M
    counts = None
    solved = []  # (m, pi) of each solved pi, before round-off is set to 0
    pis = list(pis)
    # per chain, (f, J, pinned solution or None, |pi.f - J|) of each right-hand side
    jobs = [[] for _ in range(M)]
    for m in range(M):
        pinned = None
        if pis[m] is None:
            if counts is None:
                graph = _positive_rows(chain.indptr, chain.cols, chain.values)[:2]
                counts = _closed_class_counts(*graph, M).tolist()
            if counts[m] != 1:
                out[m] = EvaluationError(
                    "stationary distribution is not unique: the chain has multiple "
                    "closed communicating classes"
                )
                continue
            try:
                if rhs is None:
                    pi = _balance_solve(chain, m)
                else:
                    pi, pinned = _stationary_and_pinned(chain, m)
            except np.linalg.LinAlgError as exc:
                out[m] = EvaluationError(f"stationary solve failed: {exc}")
                continue
            solved.append((m, pi))
            negative = pi < 0
            if negative.any():
                # transient states may come out as tiny negative round-off
                pi = np.where(negative & (pi > -STATIONARY_TOL), 0.0, pi)
                if (pi < 0).any():
                    out[m] = EvaluationError("stationary solve produced a negative probability")
                    continue
            pis[m] = pi
        if rhs is None:
            continue
        if pinned is None:
            pinned = _pinned_solver(chain, m)
        for f, J in rhs(m, pis[m]):
            b = f - J
            b[0] = 0.0
            try:
                g = pinned.solve(b)
            except np.linalg.LinAlgError:
                g = None
            jobs[m].append((f, J, g, abs(float(pis[m] @ f) - J)))
    if solved:
        x = np.zeros((M, S))
        for m, pi in solved:
            x[m] = pi
        x = x.reshape(-1)
        piP = np.bincount(chain.cols, x[chain.rows] * chain.values, minlength=M * S)
        residual = np.abs(piP - x).reshape(M, S).max(axis=1).tolist()
        for m, _ in solved:
            if residual[m] > STATIONARY_TOL:
                out[m] = EvaluationError(
                    f"stationary solve residual {residual[m]:.3e} exceeds {STATIONARY_TOL}"
                )
                jobs[m] = []
    if any(jobs):
        passed = _poisson_gates(chain, jobs)[1]
    # the normalized solutions of the potentials that failed their gate, as
    # (f, J, g, k) for the k-th right-hand side of each chain
    fallback = [[] for _ in range(M)]
    for m, job in enumerate(jobs):
        normalized = None
        for k, (f, J, g, consistency) in enumerate(job):
            # beyond CONSISTENCY_TOL * max(1, max|f|), with f scanned only past 1
            if consistency > CONSISTENCY_TOL and consistency > CONSISTENCY_TOL * np.abs(f).max():
                out[m] = EvaluationError(
                    f"supplied average {J!r} disagrees with pi.f by {consistency:.3e}"
                )
                break
            if passed[k][m]:
                continue
            if normalized is None:
                N = _identity_minus(chain, m)
                N += pis[m]
                normalized = _LUSolver(N)
            try:
                g = normalized.solve(f - J)
            except np.linalg.LinAlgError as exc:
                out[m] = EvaluationError(f"potential solve failed: {exc}")
                break
            fallback[m].append((f, J, g - g[0], k))
    if any(fallback):
        residual, passed = _poisson_gates(chain, fallback)
        for m, retried in enumerate(fallback):
            # every one comes before the right-hand side that failed above, if any
            for j, (f, J, g, k) in enumerate(retried):
                if not passed[j][m]:
                    out[m] = EvaluationError(f"potential residual {residual[j][m]:.3e} is too large")
                    break
                jobs[m][k] = (f, J, g)
    return [
        error if error is not None else (pis[m], [g for _, _, g, *_ in jobs[m]])
        for m, error in enumerate(out)
    ]


def _poisson_gates(chain: _Chain, jobs: list):
    """(residual, passed): `poisson_residual` of the potentials that
    jobs[m] lists for chain m of the batch, as nested lists indexed [k][m]
    for the k-th of chain m. Each starts with (f, J, g), g None when its
    system was singular, which fails. Every P g is taken at once, over the
    union's rows, each with the bits of its chain's own product."""
    M, S = len(jobs), chain.size
    K = max(map(len, jobs))
    zero = np.zeros(S)
    f, J, g, solved = [], [], [], []
    for k in range(K):
        for job in jobs:
            fk, Jk, gk = job[k][:3] if k < len(job) else (zero, 0.0, None)
            f.append(fk)
            J.append(Jk)
            g.append(zero if gk is None else gk)
            solved.append(gk is not None)
    g = np.array(g)
    Pg = _times(chain, g.reshape(K, M * S)).reshape(-1, S)
    residual, ok = poisson_residual(Pg, np.array(f), np.array(J), g)
    ok &= solved
    return residual.reshape(K, M).tolist(), ok.reshape(K, M).tolist()


def solve_poisson(P: np.ndarray, f: np.ndarray, J: float) -> np.ndarray:
    """Potential g with g[0] = 0 solving g = f - J + P g.

    J must equal pi.f within 1e-9 times max(1, max|f|); the solution is
    unique once g[0] is pinned.
    """
    P = _check_stochastic(P)
    f = np.asarray(f, dtype=float)
    if f.shape != (P.shape[0],):
        raise ValidationError(f"cost length {f.shape} does not match P {P.shape}")
    J = float(J)
    return _sole(_solve_chains(_dense_chain(P), [None], lambda m, pi: [(f, J)]))[1][0]


def _policy_chains(model: MdpModel, policies) -> tuple:
    """(chain, r, None): the batch of the chains the deterministic
    `policies` induce, and their reward vectors stacked in r.

    The policies are checked first, as validate_for checks each. The batch
    is one gather of the model's CSR rows (`_policy_rows`), made of rows
    that already passed `_check_rows`, the rule of _check_stochastic.
    """
    action = _check_policies(model, policies)
    r = model.reward[np.arange(model.num_states), action]
    return _csr_chain(*_policy_rows(model, action), model.num_states), r, None


def _policy_chain(model: MdpModel, policy) -> tuple:
    """(chain, r, m2) of the chain a deterministic or randomized policy
    induces, as a batch of one: r holds its reward vector, and m2 its
    second-moment row for a randomized policy (None for a deterministic
    one). A randomized mixture is built dense, checked again and
    converted once.
    """
    if isinstance(policy, DeterministicPolicy):
        return _policy_chains(model, [policy])
    if isinstance(policy, RandomizedPolicy):
        P, r, m2 = induced_chain_randomized(model, policy)
        return _dense_chain(_check_stochastic(P)), r[None], m2[None]
    raise ValidationError(f"cannot evaluate policy of type {type(policy).__name__}")


def evaluate(model: MdpModel, policy) -> EvaluationReport:
    """Full exact evaluation of a deterministic or randomized policy."""
    return _sole(_evaluate_chains(*_policy_chain(model, policy), model.beta))


def _evaluate_policies(model: MdpModel, policies, known=None) -> list:
    """evaluate(model, p) for each deterministic policy p of `policies`, as
    one batch (`_evaluate_chains`): each one's report, or the
    EvaluationError evaluate raises for it. known[m], when not None, is the
    report of policies[m] at another beta."""
    return _evaluate_chains(*_policy_chains(model, policies), model.beta, known)


def _evaluate_chains(chain: _Chain, r: np.ndarray, m2, beta: float, known=None) -> list:
    """evaluate for each chain of the batch from _policy_chain(s): a list
    with each one's report, or the EvaluationError evaluate raises for it.

    known[m], when given and not None, is chain m's report at another
    beta. Its pi, j_mean, j_var and mean and variance potentials do not
    depend on beta and are kept; the combined metric, the cost and the
    combined potential are computed again with the expressions of a fresh
    evaluation, so the outcome is the same floats (or the same
    EvaluationError) evaluate gives. j_mean, j_var and each consistency
    value are the dot products of one chain, as evaluate takes them.
    """
    known = known or [None] * r.shape[0]
    metrics = {}

    def rhs(m, pi):
        report = known[m]
        j_mean = long_run_mean(pi, r[m]) if report is None else report.j_mean
        sq = _squared_deviation(r[m], j_mean, None if m2 is None else m2[m])
        j_var = float(pi @ sq) if report is None else report.j_var
        j_comb = combined_metric(j_mean, j_var, beta)
        cost = r[m] - beta * sq
        metrics[m] = j_mean, j_var, j_comb, cost
        if report is None:
            return [(cost, j_comb), (r[m], j_mean), (sq, j_var)]
        return [(cost, j_comb)]

    outcomes = _solve_chains(chain, [None if k is None else k.pi for k in known], rhs)
    for m, outcome in enumerate(outcomes):
        if isinstance(outcome, EvaluationError):
            continue
        pi, potentials = outcome
        j_mean, j_var, j_comb, cost = metrics[m]
        if known[m] is None:
            outcomes[m] = EvaluationReport(pi, j_mean, j_var, j_comb, cost, *potentials, beta)
        else:
            outcomes[m] = dataclasses.replace(
                known[m], j_combined=j_comb, cost=cost, potential=potentials[0], beta=beta
            )
    return outcomes


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready dict of the report's fields, in their order and under
    their names; arrays become lists of floats."""
    values = ((f.name, getattr(report, f.name)) for f in dataclasses.fields(report))
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in values
    }
