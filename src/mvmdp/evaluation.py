"""Exact policy evaluation for the long-run mean-variance metric.

Evaluating a policy yields the stationary distribution, the long-run mean
J_mean, the steady-state variance J_var, the combined metric
J_combined = J_mean - beta * J_var, the mean-variance cost vector, and the
performance potentials that solve the associated Poisson equation.

Every evaluation runs on the CSR rows of the policy's chain (`_Chain`):
only the matrices LAPACK factors are dense, scattered from the rows.
Policies are evaluated in batches, a single policy as a batch of one,
and every chain of a batch is evaluated whole: its own stationary
distribution and every potential, at the batch's beta. The closed-class
count runs once over the batch, and the rest a chunk of about 1 MB of
matrices at a time (`_solve_chains`): the chunk's chains are gathered
into a batch of their own (`_only`), their dense matrices are scattered
into one stack per kind and factored slice by slice, and the metrics,
right-hand sides and pass/fail gates are array operations over the
chunk.
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
    _BLOCK_BYTES,
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    _check_beta,
    _check_policies,
    _check_rows,
    _closed_class_counts,
    _gather_rows,
    _policy_rows,
    _positive_rows,
    _square,
    induced_chain_randomized,
)

STATIONARY_TOL = 1e-10
CONSISTENCY_TOL = 1e-9
POISSON_TOL = 1e-8
# Below this many states, starting a second thread costs more than the
# factorization it overlaps (_solve_chunk): on 2 cores with one
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
    row rows[k]: in the C-order (M, size, size) stack of the chains' P it
    is at position at[k] = (m * size + i) * size + j, where m is its chain
    and i and j its row and column there, and in the stack of their
    transposes at ta[k] = (m * size + j) * size + i. Every entry that is
    not +0.0 is listed (a -0.0 is kept, as `model._kept` keeps it), so the
    entries written into zeros give P's floats. The threshold policy's
    chain at B=200 has 7,236 entries of its 1,454,436."""

    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    at: np.ndarray
    ta: np.ndarray
    size: int


def _csr_chain(indptr: np.ndarray, cols: np.ndarray, values: np.ndarray, size: int) -> _Chain:
    """The _Chain of the CSR (indptr, cols, values) holding the rows of
    chains on `size` states one after the other, each with its own column
    numbers."""
    rows = np.repeat(np.arange(indptr.size - 1), indptr[1:] - indptr[:-1])
    local = rows % size
    union = cols + (rows - local)
    return _Chain(indptr, rows, union, values, rows * size + cols, union * size + local, size)


def _dense_chain(P: np.ndarray) -> _Chain:
    """The _Chain of the dense float64 P: its entries whose bits are not all
    zero, which are those `model._kept` keeps. A P not in row-major order is
    copied into it first."""
    S = P.shape[0]
    P = np.ascontiguousarray(P)
    at = np.flatnonzero(P.view(np.int64))
    rows = at // S
    indptr = np.searchsorted(rows, np.arange(S + 1))
    cols = at - rows * S
    return _Chain(indptr, rows, cols, P.reshape(-1)[at], at, cols * S + rows, S)


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
    return _sole(_solve_chains(_dense_chain(_check_stochastic(P))))[0]


def _sole(outcomes: list):
    """The outcome of a batch of one: its result, or its exception raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    mixture over actions m2 - 2 j_mean r + j_mean**2. j_mean may be a
    float or an array that broadcasts against r; float_power squares it
    as a float's ** does, where an array's ** 2 multiplies, which can round
    differently."""
    if m2 is None:
        return (r - j_mean) ** 2
    return m2 - 2.0 * j_mean * r + np.float_power(j_mean, 2.0)


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


class _LU:
    """The LU factors of a stack of matrices, each slice factored in place.

    Slice j of the C-order float64 (c, S, S) stack, read column-major, is
    matrix j: the callers scatter each matrix's transpose into it, so dgesv
    gets it without the column-major copy np.linalg.solve makes first. The
    constructor factors each with dgesv, the call np.linalg.solve makes,
    with one right-hand side b[j], which is overwritten with its solution:
    the bits of np.linalg.solve(matrix j, b[j]). `solve` back-substitutes
    with the factors (dgetrs), one right-hand side per call; each solution
    has the bits np.linalg.solve would give it. Factoring with dgetrf would
    not keep them: with more than one BLAS thread, OpenBLAS factors
    differently in dgetrf than in a one-column dgesv from N = 100 up, and
    the two round differently. singular[j] says whether matrix j is
    singular (np.linalg.solve raises for it); its b[j] is left as it was
    and it solves nothing. Arrays go to LAPACK by address, slice j at the
    stack's address plus j S^2 doubles, with the ctypes arguments built once
    per stack. Without the LAPACK symbols nothing is factored and every
    solve is its own np.linalg.solve.
    """

    def __init__(self, stack: np.ndarray, b: np.ndarray):
        c, S = b.shape
        if stack.shape != (c, S, S) or not _c_doubles(stack) or not _c_doubles(b):
            raise ValueError(f"need C-order float64 (c, S, S) and (c, S) arrays, got {stack.shape}")
        # self keeps the stack and ipiv alive as long as their addresses are used
        self.stack, self.lapack = stack, _LAPACK
        self.singular = [False] * c
        if not c:
            return
        if self.lapack is None:
            for j in range(c):
                try:
                    b[j] = np.linalg.solve(stack[j].T, b[j])
                except np.linalg.LinAlgError:
                    self.singular[j] = True
            return
        self.ipiv = (ctypes.c_int64 * (c * S))()
        self.n, self.info = ctypes.c_int64(S), ctypes.c_int64()
        n, info = ctypes.byref(self.n), ctypes.byref(self.info)
        self.addresses = lu, ipiv = _address(stack), ctypes.addressof(self.ipiv)
        x = _address(b)
        for j in range(c):
            self.lapack[0](n, _ONE, lu + j * S * S * 8, n, ipiv + j * S * 8, x + j * S * 8, n, info)
            self.singular[j] = self.info.value > 0

    def solve(self, slots: list, x: np.ndarray) -> list:
        """Solves each row x[k] in place with the matrix of slice slots[k],
        skipping the rows whose slot is None; returns the rows left
        unsolved because their matrix is singular."""
        S = self.stack.shape[1]
        if not _c_doubles(x) or x.shape != (len(slots), S):
            raise ValueError(f"need a C-order float64 ({len(slots)}, S) array, got {x.shape}")
        rows = [k for k, j in enumerate(slots) if j is not None and not self.singular[j]]
        if self.lapack is None:
            for k in rows:
                x[k] = np.linalg.solve(self.stack[slots[k]].T, x[k])
        else:
            n, info = ctypes.byref(self.n), ctypes.byref(self.info)
            (lu, ipiv), b = self.addresses, _address(x)
            for k in rows:
                j = slots[k]
                self.lapack[1](
                    b"N", n, _ONE, lu + j * S * S * 8, n, ipiv + j * S * 8, b + k * S * 8, n, info
                )
        return [k for k, j in enumerate(slots) if j is not None and self.singular[j]]


# one right-hand side; LAPACK only reads it, so every thread may pass it
_ONE = ctypes.byref(ctypes.c_int64(1))


def _address(a: np.ndarray) -> int:
    """The address of a writable contiguous array's data, about three
    times faster than a.ctypes.data."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _c_doubles(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y along the last axis, broadcast over the others, as one stacked
    np.matmul: numpy takes each as one ddot, with the bits of x[i] @ y[i]
    (np.einsum and (x * y).sum(axis=-1) round differently)."""
    return np.matmul(x[..., None, :], y[..., None])[..., 0, 0]


def _only(chain: _Chain, ids: list) -> _Chain:
    """Chains `ids` (increasing) of the batch, as a batch of their own: their
    rows gathered and numbered again. The batch itself when ids are all of
    it."""
    S = chain.size
    if len(ids) * S == chain.indptr.size - 1:
        return chain
    rows = (np.asarray(ids, dtype=np.int64)[:, None] * S + np.arange(S)).reshape(-1)
    indptr, cols, values = _gather_rows(chain.indptr, rows, chain.cols, chain.values)
    return _csr_chain(indptr, cols % S, values, S)


def _scatter(chain: _Chain, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A C-order (n, S, S) stack of zeros, slice m for chain m of the batch,
    holding values[k] at position at[k] for each entry k (`at` is chain.at
    or chain.ta)."""
    S = chain.size
    X = np.zeros(((chain.indptr.size - 1) // S, S, S))
    X.reshape(-1)[at] = values
    return X


def _diagonals(X: np.ndarray) -> np.ndarray:
    """A view of the diagonal of each (S, S) slice of the stack X; of one
    slice, a 1-D view, on which numpy's in-place ops run about twice as
    fast as on the 2-D one."""
    c, S, _ = X.shape
    return X.reshape(-1)[:: S + 1] if c == 1 else X.reshape(c, S * S)[:, :: S + 1]


def _stationary(chain: _Chain):
    """(pi, singular): each chain's solution of the balance system, before
    any check, and whether its matrix is singular.

    The balance matrix P^T - I with its last row set to ones is the
    transpose of P - I with its last column set to ones. That is scattered
    from the rows into zeros, one C-order slice per chain, so each slice
    read column-major is the balance matrix with the floats
    np.linalg.solve would factor, and dgesv solves it for e_S as
    np.linalg.solve does. The stack is dropped on return.
    """
    X = _scatter(chain, chain.at, chain.values)
    diagonal = _diagonals(X)
    diagonal -= 1.0
    X[:, :, -1] = 1.0
    b = np.zeros(X.shape[:2])
    b[:, -1] = 1.0
    return b, _LU(X, b).singular


def _identity_minus_stack(chain: _Chain) -> np.ndarray:
    """The transposes of I - P of the batch's chains, one C-order slice
    each, so that read column-major each slice is I - P. The floats are
    those of subtracting P from a dense identity, without building one or
    a dense P: each entry p of the rows is scattered into zeros as 0.0 - p,
    then 1.0 is added on the diagonal. 1.0 + (0.0 - p) is 1.0 - p exactly
    (0.0 - p negates p exactly, and a -0.0 or a missing entry gives 1.0)."""
    X = _scatter(chain, chain.ta, 0.0 - chain.values)
    diagonal = _diagonals(X)
    diagonal += 1.0
    return X


def _pinned(chain: _Chain) -> _LU:
    """The factored pinned Poisson matrices of the batch's chains: I - P
    with row 0 replaced by e_0, factored on a zero right-hand side."""
    X = _identity_minus_stack(chain)
    X[:, :, 0] = 0.0
    X[:, 0, 0] = 1.0
    return _LU(X, np.zeros(X.shape[:2]))


def _idle_cpu() -> bool:
    """Whether a CPU this process may run on idles while one BLAS call runs:
    the process may use at least twice as many CPUs as BLAS threads."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return cpus >= 2 * (_LAPACK[2]() if _LAPACK else 1)


def _solve_chains(chain: _Chain, rhs=None) -> list:
    """For each chain m of the batch: (pi, F, J, G), or the EvaluationError
    its evaluation raises.

    pi must be unique: the support graph (the rows' entries > 0) has one
    closed class. Then it must pass the residual gate on pi P - pi, and it
    must not be negative beyond round-off, which is set to 0 on transient
    states. Without rhs only pi is solved, and F, J and G are None.

    rhs(members, pi) gives the right-hand sides of the chains `members`,
    whose stationary distributions are the rows of pi: (F, J, PF), F of
    shape (K, c, S) and the others (K, c), the k-th of chain members[q]
    being (F[k, q], J[k, q]). PF holds the dot products pi . F with the
    bits of `_dots(pi, F)`: it often has them already. Each potential g
    solves (I - P) g = f - J with g[0] = 0, and J must equal pi.f within
    CONSISTENCY_TOL times max(1, max|f|). A chain's F and G are its (K, S)
    rows of them, with the potential of its k-th right-hand side in G[k],
    and J is the list of its averages.

    The pinned system (row 0 of I - P replaced by e_0) is nonsingular for
    irreducible chains. When state 0 is transient in a unichain it becomes
    singular; a potential that fails the residual gate (`poisson_residual`)
    is then solved from the normalized system (I - P + 1 pi^T) g = f - J
    instead and shifted to g[0] = 0. Both matrices start from the
    column-major I - P; adding pi to each of its rows gives the floats of
    adding 1 pi^T. Each is factored at most once per chain, but each
    right-hand side gets its own back-substitution: one multi-column solve
    changes the low bits of the potentials.

    One strong-components pass over the union counts every chain's closed
    classes, before any dense work. The chains that pass are then solved a
    chunk at a time (`_only`, `_solve_chunk`), as many as fit one S x S
    matrix each in _BLOCK_BYTES and at least one, so at most one chunk's
    two stacks of S x S matrices are held at once: about 2 MB, or two
    matrices once one exceeds _BLOCK_BYTES, as for a single chain. Each
    chain's gates are read in the order a single evaluation reads them, and
    the first that fails gives its error.
    """
    S = chain.size
    M = (chain.indptr.size - 1) // S
    graph = _positive_rows(chain.indptr, chain.cols, chain.values)[:2]
    counts = _closed_class_counts(*graph, M).tolist()
    out = [
        None if count == 1 else EvaluationError(
            "stationary distribution is not unique: the chain has multiple "
            "closed communicating classes"
        )
        for count in counts
    ]
    live = [m for m in range(M) if out[m] is None]
    size = max(1, _BLOCK_BYTES // (S * S * 8))
    for k in range(0, len(live), size):
        run = live[k : k + size]
        for m, outcome in zip(run, _solve_chunk(_only(chain, run), rhs, run)):
            out[m] = outcome
    return out


def _solve_chunk(chain: _Chain, rhs, ids: list) -> list:
    """_solve_chains for every chain of the batch `chain`, whose numbers in
    rhs's batch are ids.

    The balance matrices are scattered into one stack and the pinned
    matrices into another, with one assignment each, and each slice is
    factored by address (`_LU`). From OVERLAP_MIN_STATES states up, when a
    CPU would idle, a second thread builds and factors the pinned stack
    while this one solves for pi: LAPACK runs without the interpreter lock.
    Each factorization is the same call either way, so the bits are the
    same; the second thread has ended before anything else runs. The costs,
    the right-hand sides, the consistency values and the gates are array
    operations over the chunk; the stationary gate is one bincount over the
    chunk's rows and the Poisson gates one 2-D reduceat over the rows of
    the chains that pass it (`_only`), each row summed as its chain alone
    sums it. Both stacks are gone before a chain that needs the normalized
    system builds it, as a stack of one.
    """
    c, S = len(ids), chain.size
    if rhs is not None and S >= OVERLAP_MIN_STATES and _idle_cpu():
        with ThreadPoolExecutor(max_workers=1) as worker:
            pinned = worker.submit(_pinned, chain)
            raw, singular = _stationary(chain)
        pinned = pinned.result()
    else:
        raw, singular = _stationary(chain)
        pinned = None if rhs is None else _pinned(chain)
    pi, negative = raw, [False] * c
    if (raw < 0).any():
        # transient states may come out as tiny negative round-off
        pi = np.where((raw < 0) & (raw > -STATIONARY_TOL), 0.0, raw)
        negative = (pi < 0).any(axis=1).tolist()
    # the gate reads the unclamped solutions; a singular chain's is never read
    x = raw.reshape(-1)
    piP = np.bincount(chain.cols, x[chain.rows] * chain.values, minlength=c * S)
    residual = np.abs(piP - x).reshape(c, S).max(axis=1).tolist()
    errors = [None] * c
    for q, (bad, res, neg) in enumerate(zip(singular, residual, negative)):
        if bad:
            errors[q] = "stationary solve failed: Singular matrix"
        elif res > STATIONARY_TOL:
            errors[q] = f"stationary solve residual {res:.3e} exceeds {STATIONARY_TOL}"
        elif neg:
            errors[q] = "stationary solve produced a negative probability"
    good = [q for q in range(c) if errors[q] is None]
    if len(good) < c:
        pi = pi[good]
    if rhs is not None and good:
        F, J, PF = rhs([ids[q] for q in good], pi)
        G = F - J[..., None]
        G[..., 0] = 0.0
        unsolved = pinned.solve(good * F.shape[0], G.reshape(-1, S))
        # a potential whose pinned matrix is singular fails its gate
        G.reshape(-1, S)[unsolved] = 0.0
    del pinned  # the pinned factors go before any normalized matrix is built
    if rhs is None or not good:
        return _outcomes(errors, good, pi)
    kept = _only(chain, good)
    consistency = np.abs(PF - J)
    # beyond CONSISTENCY_TOL * max(1, max|f|), with f scanned only past 1
    off = consistency > CONSISTENCY_TOL
    if off.any():
        off &= consistency > CONSISTENCY_TOL * np.abs(F).max(axis=2)
    passed = _poisson_gates(kept, F, J, G)[1]
    passed.reshape(-1)[unsolved] = False
    if off.any() or not passed.all():
        # the right-hand sides after an inconsistent one are never solved
        retry = ~passed & ~np.logical_or.accumulate(off, axis=0)
        for q, error in zip(good, _fall_back(kept, pi, F, J, G, retry, off, consistency)):
            errors[q] = error
    return _outcomes(errors, good, pi, F, J.T.tolist(), G)


def _outcomes(errors: list, good: list, pi, F=None, J=None, G=None) -> list:
    """The outcome of each chain q of a chunk: EvaluationError(errors[q]),
    or (pi, F, J, G) of the chain, its rows of the chunk's arrays (pi[i],
    F[:, i], J[i] and G[:, i] for q = good[i]; F, J and G None without
    right-hand sides)."""
    out = [None if e is None else EvaluationError(e) for e in errors]
    for i, q in enumerate(good):
        if out[q] is None:
            out[q] = (pi[i], None, None, None) if F is None else (pi[i], F[:, i], J[i], G[:, i])
    return out


def _fall_back(chain, pi, F, J, G, retry, off, consistency) -> list:
    """Solves each potential G[k, q] of chain q that `retry` marks
    from the normalized system instead, a chain at a time. Returns each
    chain's error: that of its first right-hand side that is inconsistent
    (`off`, with its consistency value) or fails the normalized solve or
    its gate, or None."""
    stuck = np.zeros(retry.shape, dtype=bool)
    for q in np.flatnonzero(retry.any(axis=0)).tolist():
        ks = np.flatnonzero(retry[:, q])
        b = F[ks, q] - J[ks, q][:, None]
        normalized = _normalized(chain, q, pi[q])
        if not normalized.solve([0] * ks.size, b):
            G[ks, q] = b - b[:, :1]
        else:
            stuck[ks, q] = True
        del normalized
    residual, passed = _poisson_gates(chain, F, J, G)
    failed = off | stuck | (retry & ~stuck & ~passed)
    errors = [None] * retry.shape[1]
    for q in np.flatnonzero(failed.any(axis=0)).tolist():
        k = int(np.argmax(failed[:, q]))
        if off[k, q]:
            errors[q] = (
                f"supplied average {float(J[k, q])!r} disagrees with pi.f by "
                f"{consistency[k, q]:.3e}"
            )
        elif stuck[k, q]:
            errors[q] = "potential solve failed: Singular matrix"
        else:
            errors[q] = f"potential residual {residual[k, q]:.3e} is too large"
    return errors


def _normalized(chain: _Chain, member: int, pi: np.ndarray) -> _LU:
    """The factored normalized Poisson matrix I - P + 1 pi^T of chain
    `member`, as a stack of one."""
    X = _identity_minus_stack(_only(chain, [member]))
    X[0] += pi[:, None]
    return _LU(X, np.zeros((1, chain.size)))


def _poisson_gates(chain: _Chain, F, J, G):
    """(residual, passed), each (K, c): `poisson_residual` of each potential
    G[k, q] of chain q, for the right-hand side (F[k, q], J[k, q]). Every
    P g is taken at once over the batch's rows, each with the bits of its
    chain's own product."""
    K, c, S = G.shape
    Pg = _times(chain, G.reshape(K, c * S)).reshape(-1, S)
    residual, passed = poisson_residual(Pg, F.reshape(-1, S), J.reshape(-1), G.reshape(-1, S))
    return residual.reshape(K, c), passed.reshape(K, c)


def solve_poisson(P: np.ndarray, f: np.ndarray, J: float) -> np.ndarray:
    """Potential g with g[0] = 0 solving g = f - J + P g.

    J must equal pi.f within 1e-9 times max(1, max|f|); the solution is
    unique once g[0] is pinned.
    """
    P = _check_stochastic(P)
    f = np.asarray(f, dtype=float)
    if f.shape != (P.shape[0],):
        raise ValidationError(f"cost length {f.shape} does not match P {P.shape}")
    J = np.array([[float(J)]])

    def rhs(members, pi):
        return f[None, None], J, _dots(pi, f[None, None])

    return _sole(_solve_chains(_dense_chain(P), rhs))[3][0]


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
    induces, as a batch of one: r holds its reward vector, and m2 is None
    for a deterministic policy and [its second-moment row] for a
    randomized one. A randomized mixture is built dense, checked again and
    converted once.
    """
    if isinstance(policy, DeterministicPolicy):
        return _policy_chains(model, [policy])
    if isinstance(policy, RandomizedPolicy):
        P, r, m2 = induced_chain_randomized(model, policy)
        return _dense_chain(_check_stochastic(P)), r[None], [m2]
    raise ValidationError(f"cannot evaluate policy of type {type(policy).__name__}")


def evaluate(model: MdpModel, policy) -> EvaluationReport:
    """Full exact evaluation of a deterministic or randomized policy."""
    return _sole(_evaluate_chains(*_policy_chain(model, policy), model.beta))


def _evaluate_policies(model: MdpModel, policies) -> list:
    """evaluate(model, p) for each deterministic policy p of `policies`, as
    one batch (`_evaluate_chains`): each one's report, or the
    EvaluationError evaluate raises for it."""
    return _evaluate_chains(*_policy_chains(model, policies), model.beta)


def _evaluate_chains(chain: _Chain, r: np.ndarray, m2, beta: float) -> list:
    """evaluate for each chain of the batch from _policy_chain(s): a list
    with each one's report, or the EvaluationError evaluate raises for it.

    r stacks the chains' reward vectors. m2 is None, or a list with each
    chain's second-moment row, None for a deterministic policy's chain.
    j_mean, j_var and the costs are taken for a chunk at a time, each with
    the bits of one chain's scalar expressions: each dot product is one
    chain's ddot (`_dots`).
    """

    def rhs(members, pi):
        # the costs, rewards and squared deviations, and their averages
        rows = r.take(members, axis=0)
        j_mean = _dots(pi, rows)
        sq = _squared_deviation(rows, j_mean[:, None])
        if m2 is not None:
            for q, m in enumerate(members):
                if m2[m] is not None:
                    sq[q] = _squared_deviation(rows[q], j_mean[q], m2[m])
        F = np.array([rows - beta * sq, rows, sq])
        # pi . cost for the consistency check, pi . r = j_mean and pi . sq = j_var
        PF = _dots(pi, F)
        j_var = PF[2]
        return F, np.array([j_mean - beta * j_var, j_mean, j_var]), PF

    outcomes = _solve_chains(chain, rhs)
    for m, outcome in enumerate(outcomes):
        if not isinstance(outcome, EvaluationError):
            pi, (cost, _, _), (j_comb, j_mean, j_var), potentials = outcome
            outcomes[m] = EvaluationReport(pi, j_mean, j_var, j_comb, cost, *potentials, beta)
    return outcomes


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready dict of the report's fields, in their order and under
    their names; arrays become lists of floats."""
    values = ((f.name, getattr(report, f.name)) for f in dataclasses.fields(report))
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in values
    }
