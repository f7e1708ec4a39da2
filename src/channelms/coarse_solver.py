"""Coarse (reduced-order) flow and transport solves.

Every space is a `NestedSpace` of per-domain mode blocks: velocity and
concentration from the offline stage, and pressure with one constant per
domain (`pressure_space`).  Each basis row is supported on one coarse domain,
so each coarse operator R X Rᵀ is a set of small dense blocks, one per pair
of neighbouring domains.  `DomainBlocks` stacks each domain's mode vectors
into one dense block, and `galerkin` cuts the fine operator's pattern into
those pairs (`PairPattern`) and builds each block with BLAS, serially, so
results do not depend on the thread count.  The online stage works at coarse
size: the fine operators are projected once onto the largest space of a
sweep (`project_flow`, `project_transport`), and every smaller (nested)
space takes the principal submatrix of the rows that its `rows(M)` keeps.
The upwind convection has one fixed fine pattern, so the transport
projection keeps its pair plan, and each new convection matrix costs one
gather of its data plus the block products.  Coarse systems are dense and
tiny; each distinct one is LU-factored once and reused at every step.
Reconstruction is the transpose map back to fine dofs, the coefficients
padded with zeros to every row of the largest space.
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
from .spectral import ModeBlock, NestedSpace


def pressure_space(partition: CoarsePartition) -> NestedSpace:
    """Piecewise-constant pressure: one whole block of ones per domain, on
    the domain's cells, so R holds the 0/1 domain indicators."""
    cells = [partition.domain_cells(d) for d in range(partition.n_domains)]
    blocks = [ModeBlock(domain=d, label="pressure", eigenvalues=np.zeros(0),
                        vectors=np.ones((1, len(c))), dofs=c)
              for d, c in enumerate(cells)]
    return NestedSpace.stack("pressure", blocks, len(partition.cell_to_domain))


@dataclass
class CoarseFlowOperators:
    M: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Fu: np.ndarray
    Fp: np.ndarray
    rows: np.ndarray | None = None  # of the projected velocity space; None: all
    Mu: int | None = None  # the size of those rows, for error messages

    def restrict(self, Mu: int, ix: np.ndarray) -> "CoarseFlowOperators":
        """The operators of the nested space of size Mu, spanned by velocity
        rows ix."""
        sub = np.ix_(ix, ix)
        return CoarseFlowOperators(M=self.M[sub], A=self.A[sub],
                                   B=self.B[:, ix], Fu=self.Fu[ix], Fp=self.Fp,
                                   rows=ix, Mu=Mu)


def lift(R: sp.spmatrix, rows, x: np.ndarray) -> np.ndarray:
    """Rᵀ x for coefficients x of the rows `rows` of R (all when None): x is
    padded with zeros to every row, which adds exact zeros only and spares a
    copy of the rows."""
    padded = np.zeros(R.shape[0])
    padded[slice(None) if rows is None else rows] = x
    return np.asarray(R.T @ padded)


class DomainBlocks:
    """The modes of a space grouped by coarse domain.

    Domain d owns the rows rows[d] of the space's R, held by its blocks, and
    the fine dofs perm[offsets[d]:offsets[d+1]] that its blocks share; V[d]
    stacks its blocks' mode vectors, its dense mode block.
    """

    def __init__(self, space: NestedSpace):
        self.n_rows, n_dofs = space.R.shape
        ends = np.cumsum([len(b.vectors) for b in space.blocks])
        per_domain = {}
        for b, end in zip(space.blocks, ends):
            rows = np.arange(end - len(b.vectors), end)
            per_domain.setdefault(b.domain, []).append((b, rows))
        dofs, self.rows, self.V = [], [], []
        for d in sorted(per_domain):
            blocks, rows = zip(*per_domain[d])
            if any(not np.array_equal(b.dofs, blocks[0].dofs) for b in blocks):
                raise ValueError(f"{space.name} blocks of domain {d} disagree "
                                 f"on their dofs")
            dofs.append(blocks[0].dofs)
            self.rows.append(np.concatenate(rows))
            self.V.append(np.vstack([b.vectors for b in blocks]))
        self.perm = np.concatenate(dofs)
        if not np.array_equal(np.sort(self.perm), np.arange(n_dofs)):
            raise ValueError(f"the dofs of the {space.name} domains are not a "
                             f"permutation of its {n_dofs} fine dofs")
        widths = [len(x) for x in dofs]
        self.offsets = np.concatenate([[0], np.cumsum(widths, dtype=int)])
        self.domain = np.repeat(np.arange(len(dofs)), widths)  # of each permuted dof
        self.position = np.empty(n_dofs, dtype=np.int32)  # of each dof in perm
        self.position[self.perm] = np.arange(n_dofs)


class PairPattern:
    """A sparsity pattern cut into one CSR block per pair of domains (i, j)
    of L and R that it couples, in the domain-contiguous dof order of each.

    `gather` lists the pattern's entries pair by pair, so a matrix of this
    pattern is cut with one `data[gather]`.  `symmetric` keeps only the
    pairs with j >= i.
    """

    def __init__(self, X: sp.spmatrix, L: DomainBlocks, R: DomainBlocks,
                 symmetric: bool = False):
        if symmetric and L is not R:
            raise ValueError("a symmetric projection needs one set of blocks")
        X = sp.csr_matrix(X)
        self.L, self.R, self.symmetric = L, R, symmetric
        self.indptr, self.indices = X.indptr, X.indices
        r = L.position[np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))]
        c = R.position[X.indices]
        di, dj = L.domain[r], R.domain[c]
        keep = np.flatnonzero(di <= dj) if symmetric else np.arange(X.nnz)
        pair = di[keep] * len(R.rows) + dj[keep]
        # stable: each pair keeps the row-major order, which the permutations
        # (stable sorts by domain) preserve
        order = np.argsort(pair, kind="stable")
        self.gather, pair = keep[order], pair[order]
        cuts = np.flatnonzero(np.diff(pair)) + 1
        self.blocks = []
        for a, b in zip([0, *cuts], [*cuts, len(pair)]) if len(pair) else ():
            i, j = divmod(int(pair[a]), len(R.rows))
            ix = self.gather[a:b]
            per_row = np.bincount(r[ix] - L.offsets[i],
                                  minlength=L.offsets[i + 1] - L.offsets[i])
            indptr = np.concatenate([[0], np.cumsum(per_row)]).astype(np.int32)
            self.blocks.append((i, j, a, b, indptr, (c[ix] - R.offsets[j]).astype(np.int32)))

    def project(self, X: sp.spmatrix) -> np.ndarray:
        """The dense L X Rᵀ, one block V_i X_ij V_jᵀ per pair; with
        `symmetric` each block below the diagonal is the transpose of its
        mirror and each diagonal block is replaced by its symmetric part, so
        the result is exactly symmetric."""
        X = sp.csr_matrix(X)
        if not (np.array_equal(X.indptr, self.indptr)
                and np.array_equal(X.indices, self.indices)):
            raise ValueError("matrix does not have the pattern of this projection")
        L, R, data = self.L, self.R, X.data[self.gather]
        H = np.zeros((L.n_rows, R.n_rows))
        for i, j, a, b, indptr, indices in self.blocks:
            X_ij = sp.csr_matrix((data[a:b], indices, indptr),
                                 shape=(len(indptr) - 1, R.offsets[j + 1] - R.offsets[j]))
            block = L.V[i] @ (X_ij @ R.V[j].T)
            if self.symmetric and j == i:
                block = (block + block.T) / 2
            H[np.ix_(L.rows[i], R.rows[j])] = block
            if self.symmetric and j != i:
                H[np.ix_(R.rows[j], L.rows[i])] = block.T
        return H


def galerkin(X: sp.spmatrix, L: DomainBlocks, R: DomainBlocks,
             symmetric: bool = False) -> np.ndarray:
    """The dense L X Rᵀ by domain blocks (`PairPattern.project`);
    `symmetric` declares a symmetric X projected on both sides by the same
    blocks, and makes the result exactly symmetric."""
    return PairPattern(X, L, R, symmetric).project(X)


def project_flow(velocity: NestedSpace, pressure: NestedSpace,
                 ops: FlowOperators) -> CoarseFlowOperators:
    U, P = DomainBlocks(velocity), DomainBlocks(pressure)
    return CoarseFlowOperators(
        M=galerkin(ops.M, U, U, symmetric=True),
        A=galerkin(ops.A, U, U, symmetric=True),
        B=galerkin(ops.B, P, U),
        Fu=np.asarray(velocity.R @ ops.Fu),
        Fp=np.asarray(pressure.R @ ops.Fp),
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
    space: NestedSpace  # velocity
    rows: np.ndarray | None  # of space.R that the coefficients hold

    def velocity_at(self, step: int) -> np.ndarray:
        """Fine-grid reconstruction; returns a cached array once steady."""
        k = min(step, len(self._fine) - 1)
        return self._fine[k]

    def reconstruct(self):
        self._fine = [lift(self.space.R, self.rows, uH) for uH in self.coefficients]

    @property
    def final_velocity(self) -> np.ndarray:
        return self._fine[-1]


def solve_coarse_flow(velocity: NestedSpace, cops: CoarseFlowOperators,
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
    lu = factor(K, f"coarse flow system at M_u={cops.Mu}")

    uH = np.zeros(nU)
    sol = CoarseFlowSolution(coefficients=[uH], pressures=[np.zeros(nP)],
                             steady_step=None, space=velocity, rows=cops.rows)
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


@dataclass
class CoarseTransportOperators:
    """The velocity-independent transport of a sweep, projected once onto its
    largest concentration space, and the plan that projects the convection
    of each distinct velocity: its fine pattern cut into domain pairs."""

    dz: Discretization
    space: NestedSpace  # concentration
    M: np.ndarray
    A: np.ndarray
    F: np.ndarray
    m0: np.ndarray  # R M c0
    convection: PairPattern


def project_transport(dz: Discretization, space: NestedSpace,
                      M: sp.spmatrix, A: sp.spmatrix, F_static: np.ndarray,
                      c0: np.ndarray) -> CoarseTransportOperators:
    """Project the fine M, A (both symmetric), F_static and initial state
    onto the concentration `space`; every velocity source of a sweep shares
    the result."""
    Rc, plan = space.R, dz.convection_plan()
    blocks = DomainBlocks(space)
    pattern = sp.csr_matrix((np.zeros(len(plan.indices)), plan.indices, plan.indptr),
                            shape=(Rc.shape[1], Rc.shape[1]))
    return CoarseTransportOperators(
        dz=dz, space=space,
        M=galerkin(M, blocks, blocks, symmetric=True),
        A=galerkin(A, blocks, blocks, symmetric=True),
        F=np.asarray(Rc @ F_static),
        m0=np.asarray(Rc @ (M @ np.asarray(c0, dtype=float))),
        convection=PairPattern(pattern, blocks, blocks))


class _NestedRun:
    """One M_c of a shared transport solve: its rows of the largest space,
    its mass block, coefficients, current factors and fine-size reports."""

    def __init__(self, cops: CoarseTransportOperators, Mc: int | None):
        self.Mc = Mc
        self.Rc = cops.space.R
        self.ix = (np.arange(self.Rc.shape[0]) if Mc is None
                   else cops.space.rows(Mc))
        self.sub = np.ix_(self.ix, self.ix)
        self.mass = cops.M[self.sub]
        self.cH = lu_solve(self.factor(cops.M, "mass matrix"), cops.m0[self.ix])
        self.lu = None
        self.reported = {}

    def factor(self, K: np.ndarray, what: str) -> tuple:
        return factor(K[self.sub], f"coarse transport {what} at M_c={self.Mc}")

    def lift(self) -> np.ndarray:
        return lift(self.Rc, self.ix, self.cH)


def solve_coarse_transport(cops: CoarseTransportOperators, velocity_at, c_in,
                           grid: TimeGrid, mc_list=(None,),
                           report_steps=()) -> list:
    """Reduced implicit Euler transport on every nested space of `mc_list`.

    The convection of each distinct `velocity_at(step)` array is assembled
    on its fixed fine pattern and projected through `cops.convection`, onto
    the largest M_c.  Each M_c takes the principal submatrix of its rows and
    factors its system once per distinct velocity; all of them step
    together.  Returns one entry per M_c: its CoarseTransportSolution, or
    the LinAlgError that stopped it while the others kept stepping.  M_c =
    None stands for the whole space.
    """
    tau = grid.tau
    runs, failed = [], {}
    for Mc in mc_list:
        try:
            runs.append(_NestedRun(cops, Mc))
        except np.linalg.LinAlgError as exc:
            failed[Mc] = exc

    report = set(int(s) for s in report_steps)
    cached_u = object()
    for step in range(1, grid.n_steps + 1):
        u = velocity_at(step)
        if u is not cached_u:
            K, F = cops.M / tau + cops.A, cops.F
            if u is not None:
                C, Fc = assemble_convection(cops.dz, u, c_in)
                K = K + cops.convection.project(C)
                F = F + np.asarray(cops.space.R @ Fc)
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
