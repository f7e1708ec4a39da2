"""Coarse (reduced-order) flow and transport solves.

Projection matrices stack the per-domain basis rows; pressure is reduced to
one piecewise-constant value per domain.  Every basis row is supported on one
coarse domain, so each coarse operator R X Rᵀ is a set of small dense blocks,
one per pair of neighbouring domains.  `galerkin` builds them from each
domain's dense mode block with BLAS (`DomainBlocks`), serially, so results do
not depend on the thread count.  The online stage works at coarse size: the
fine operators are projected once onto the largest space of a sweep, and
every smaller (nested) space takes the principal submatrix of the rows that
its `rows(M)` keeps.  Coarse systems are dense and tiny; each distinct one is
LU-factored once and reused at every step.  Reconstruction is the transpose
map back to fine dofs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .assembly import Discretization, FlowOperators, assemble_convection
from .fine_solver import STEADY_TOL, TimeGrid
from .mesh import CoarsePartition
from .spectral import NestedSpace


@dataclass
class MultiscaleSpace:
    """Projection matrices for the reduced spaces: the velocity rows of size
    Mu (all rows when None) and the whole concentration space, whose nested
    sizes the transport solve takes by `concentration_space.rows`."""

    R_u: sp.csr_matrix
    R_p: sp.csr_matrix  # 0/1 domain indicators over pressure dofs
    R_c: sp.csr_matrix | None
    partition: CoarsePartition
    Mu: int | None = None
    concentration_space: NestedSpace | None = None


def pressure_indicators(dz: Discretization, partition: CoarsePartition) -> sp.csr_matrix:
    rows = partition.cell_to_domain
    cols = np.arange(dz.mesh.n_cells)
    vals = np.ones(dz.mesh.n_cells)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(partition.n_domains, dz.mesh.n_cells)).tocsr()


def build_multiscale_space(dz: Discretization, partition: CoarsePartition,
                           velocity_space: NestedSpace,
                           concentration_space: NestedSpace | None = None,
                           Mu: int | None = None) -> MultiscaleSpace:
    R_u = velocity_space.R
    if Mu is not None:
        ix = velocity_space.rows(Mu)
        if len(ix) < R_u.shape[0]:  # the largest size is R itself, uncopied
            R_u = R_u[ix]
    return MultiscaleSpace(
        R_u=R_u,
        R_p=pressure_indicators(dz, partition),
        R_c=None if concentration_space is None else concentration_space.R,
        partition=partition,
        Mu=Mu,
        concentration_space=concentration_space,
    )


@dataclass
class CoarseFlowOperators:
    M: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Fu: np.ndarray
    Fp: np.ndarray

    def restrict(self, ix: np.ndarray) -> "CoarseFlowOperators":
        """The operators of the nested space spanned by velocity rows ix."""
        sub = np.ix_(ix, ix)
        return CoarseFlowOperators(M=self.M[sub], A=self.A[sub],
                                   B=self.B[:, ix], Fu=self.Fu[ix], Fp=self.Fp)


class DomainBlocks:
    """The rows of a projection matrix R grouped by the coarse domain that
    holds their support.

    `dof_domain` maps each fine dof (column of R) to its domain.  Domain d
    owns the fine dofs perm[offsets[d]:offsets[d+1]] and the rows rows[d] of
    R; V[d] = R[rows[d]][:, those dofs] is its dense mode block.  All-zero
    rows belong to no domain, so they project to zero.
    """

    def __init__(self, R: sp.spmatrix, dof_domain: np.ndarray):
        R = sp.csr_matrix(R)
        self.n_rows, n_dofs = R.shape
        if len(dof_domain) != n_dofs:
            raise ValueError(f"{len(dof_domain)} dof domains for "
                             f"{n_dofs} projection columns")
        self.perm = np.argsort(dof_domain, kind="stable")
        self.domain = dof_domain[self.perm]  # of each permuted dof
        n_domains = int(self.domain[-1]) + 1 if n_dofs else 0
        self.offsets = np.searchsorted(self.domain, np.arange(n_domains + 1))

        if not (R.has_canonical_format and R.data.all()):
            R = R.copy()
            R.sum_duplicates()
            R.eliminate_zeros()
        held = np.flatnonzero(np.diff(R.indptr))
        row_domain = np.full(self.n_rows, -1)
        row_domain[held] = dof_domain[R.indices[R.indptr[held]]]
        self.rows = [np.flatnonzero(row_domain == d) for d in range(n_domains)]

        col_local = np.empty(n_dofs, dtype=np.int64)
        col_local[self.perm] = np.arange(n_dofs) - self.offsets[self.domain]
        self.V = []
        for d, (rows, width) in enumerate(zip(self.rows, np.diff(self.offsets))):
            sub = R[rows]
            stray = np.flatnonzero(dof_domain[sub.indices] != d)
            if len(stray):
                row = rows[np.searchsorted(sub.indptr, stray[0], side="right") - 1]
                other = dof_domain[sub.indices[stray[0]]]
                raise ValueError(f"projection row {row} spans domains "
                                 f"{min(d, other)} and {max(d, other)}")
            V = np.zeros((len(rows), width))
            V[np.repeat(np.arange(len(rows)), np.diff(sub.indptr)),
              col_local[sub.indices]] = sub.data
            self.V.append(V)


def galerkin(X: sp.spmatrix, L: DomainBlocks, R: DomainBlocks,
             symmetric: bool = False) -> np.ndarray:
    """The dense L X Rᵀ, one block V_i X_ij V_jᵀ per pair of domains (i, j)
    that X couples, with the fine dofs of each domain made contiguous.

    `symmetric` declares a symmetric X projected on both sides by the same
    blocks: only the blocks with j >= i are computed, each block below the
    diagonal is the transpose of its mirror and each diagonal block is
    replaced by its symmetric part, so the result is exactly symmetric.
    """
    if symmetric and L is not R:
        raise ValueError("a symmetric projection needs one set of blocks")
    X = sp.csr_matrix(X)[L.perm][:, R.perm]
    H = np.zeros((L.n_rows, R.n_rows))
    for i, (rows_i, V_i) in enumerate(zip(L.rows, L.V)):
        X_i = X[L.offsets[i]:L.offsets[i + 1]]
        touched = np.bincount(R.domain[X_i.indices], minlength=len(R.rows))
        if symmetric:
            touched[:i] = 0
        for j in np.flatnonzero(touched):
            rows_j = R.rows[j]
            X_ij = X_i[:, R.offsets[j]:R.offsets[j + 1]]
            block = V_i @ (X_ij @ R.V[j].T)
            if symmetric and j == i:
                block = (block + block.T) / 2
            H[np.ix_(rows_i, rows_j)] = block
            if symmetric and j != i:
                H[np.ix_(rows_j, rows_i)] = block.T
    return H


def project_flow(space: MultiscaleSpace, ops: FlowOperators) -> CoarseFlowOperators:
    cell_domain = space.partition.cell_to_domain
    U = DomainBlocks(space.R_u, np.repeat(cell_domain, 6))
    P = DomainBlocks(space.R_p, cell_domain)
    return CoarseFlowOperators(
        M=galerkin(ops.M, U, U, symmetric=True),
        A=galerkin(ops.A, U, U, symmetric=True),
        B=galerkin(ops.B, P, U),
        Fu=np.asarray(space.R_u @ ops.Fu),
        Fp=np.asarray(space.R_p @ ops.Fp),
    )


def factor(K: np.ndarray, system: str) -> tuple:
    """LU factors of a dense coarse matrix.  lu_factor only warns on an
    exactly zero pivot, so that raises a LinAlgError naming `system`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(K)
    zero = np.flatnonzero(np.diag(lu) == 0.0)
    if len(zero):
        raise np.linalg.LinAlgError(
            f"singular {system}: zero pivot in column {zero[0]}")
    return lu, piv


@dataclass
class CoarseFlowSolution:
    coefficients: list  # u_H per step
    pressures: list  # p_H per step
    steady_step: int | None
    space: MultiscaleSpace

    def velocity_at(self, step: int) -> np.ndarray:
        """Fine-grid reconstruction; returns a cached array once steady."""
        k = min(step, len(self._fine) - 1)
        return self._fine[k]

    def reconstruct(self):
        self._fine = [np.asarray(self.space.R_u.T @ uH) for uH in self.coefficients]

    @property
    def final_velocity(self) -> np.ndarray:
        return self._fine[-1]


def solve_coarse_flow(space: MultiscaleSpace, cops: CoarseFlowOperators,
                      grid: TimeGrid,
                      steady_tol: float = STEADY_TOL) -> CoarseFlowSolution:
    """Implicit Euler on the reduced saddle system from rest; the constant
    matrix is factored once, and the solve freezes at steady state."""
    nU = cops.A.shape[0]
    nP = cops.B.shape[0]
    tau = grid.tau
    K = np.zeros((nU + nP, nU + nP))
    K[:nU, :nU] = cops.M / tau + cops.A
    K[:nU, nU:] = cops.B.T
    K[nU:, :nU] = cops.B
    lu = factor(K, f"coarse flow system at M_u={space.Mu}")

    uH = np.zeros(nU)
    sol = CoarseFlowSolution(coefficients=[uH], pressures=[np.zeros(nP)],
                             steady_step=None, space=space)
    for step in range(1, grid.n_steps + 1):
        x = lu_solve(lu, np.concatenate([cops.Fu + cops.M @ uH / tau, cops.Fp]))
        unew, p = x[:nU], x[nU:]
        sol.coefficients.append(unew)
        sol.pressures.append(p)
        if np.linalg.norm(unew - uH) <= steady_tol * max(np.linalg.norm(unew), 1e-300):
            sol.steady_step = step
            break
        uH = unew
    sol.reconstruct()
    return sol


@dataclass
class CoarseTransportSolution:
    times: np.ndarray
    final: np.ndarray  # fine-grid reconstruction at t_max
    reported: dict  # step -> fine-grid reconstruction
    coefficients: np.ndarray  # c_H at t_max


class _NestedRun:
    """One M_c of a shared transport solve: its rows of the largest space,
    its mass block, coefficients, current factors and fine-size reports.
    Fields are lifted through the largest R_c with zero padding, which adds
    exact zeros only and spares a copy of the rows."""

    def __init__(self, space: MultiscaleSpace, Mc: int | None,
                 M_H: np.ndarray, m0: np.ndarray):
        self.Mc = Mc
        self.ix = (np.arange(space.R_c.shape[0]) if Mc is None
                   else space.concentration_space.rows(Mc))
        self.sub = np.ix_(self.ix, self.ix)
        self.Rc = space.R_c
        self.mass = M_H[self.sub]
        self.cH = lu_solve(self.factor(M_H, "mass matrix"), m0[self.ix])
        self.lu = None
        self.reported = {}

    def factor(self, K: np.ndarray, what: str) -> tuple:
        return factor(K[self.sub], f"coarse transport {what} at M_c={self.Mc}")

    def lift(self) -> np.ndarray:
        padded = np.zeros(self.Rc.shape[0])
        padded[self.ix] = self.cH
        return np.asarray(self.Rc.T @ padded)


def solve_coarse_transport(dz: Discretization, space: MultiscaleSpace,
                           M: sp.spmatrix, A: sp.spmatrix, F_static: np.ndarray,
                           velocity_at, c_in, grid: TimeGrid, c0: np.ndarray,
                           mc_list=(None,), report_steps=()) -> list:
    """Reduced implicit Euler transport on every nested space of `mc_list`.

    M, A, F_static are the fine operators (M and A symmetric).  They, the
    initial state and the convection of each distinct `velocity_at(step)`
    array are projected once onto `space`, the largest M_c, by domain blocks.
    Each M_c takes the principal submatrix of its rows and factors its system
    once per distinct velocity; all of them step together.  Returns one entry
    per M_c: its CoarseTransportSolution, or the LinAlgError that stopped it
    while the others kept stepping.  M_c = None stands for the whole space.
    """
    Rc = space.R_c
    tau = grid.tau
    blocks = DomainBlocks(Rc, np.repeat(space.partition.cell_to_domain, 3))

    M_H = galerkin(M, blocks, blocks, symmetric=True)
    A_H = galerkin(A, blocks, blocks, symmetric=True)
    F_H = np.asarray(Rc @ F_static)
    m0 = np.asarray(Rc @ (M @ np.asarray(c0, dtype=float)))

    runs, failed = [], {}
    for Mc in mc_list:
        try:
            runs.append(_NestedRun(space, Mc, M_H, m0))
        except np.linalg.LinAlgError as exc:
            failed[Mc] = exc

    report = set(int(s) for s in report_steps)
    cached_u = object()
    for step in range(1, grid.n_steps + 1):
        u = velocity_at(step)
        if u is not cached_u:
            K, F = M_H / tau + A_H, F_H
            if u is not None:
                C, Fc = assemble_convection(dz, u, c_in)
                K, F = K + galerkin(C, blocks, blocks), F + np.asarray(Rc @ Fc)
                del C, Fc  # no two fine convection matrices alive at once
            for run in list(runs):
                try:
                    run.lu = run.factor(K, "system")
                except np.linalg.LinAlgError as exc:
                    failed[run.Mc] = exc
                    runs.remove(run)
            cached_u = u
        for run in runs:
            run.cH = lu_solve(run.lu, F[run.ix] + run.mass @ run.cH / tau)
            if step in report:
                run.reported[step] = run.lift()

    done = {run.Mc: CoarseTransportSolution(
                times=grid.times(), final=run.lift(),
                reported=run.reported, coefficients=run.cH) for run in runs}
    return [failed[Mc] if Mc in failed else done[Mc] for Mc in mc_list]
