"""Fine-grid time stepping for flow and transport.

Both solvers use implicit Euler and factor their system once per run, with a
minimum-degree ordering and diagonal pivots.  The transport system depends on
the advecting velocity, which changes at every step until the flow settles.
Transport factors the system of the final velocity; a step with another
velocity solves its own system by iterative refinement preconditioned with
that factorization, and factors its own system only where the refinement
cannot reach `RESIDUAL_TOL`.  The first solve of every factorization is
checked, and so is the last residual of every refinement.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import Discretization, FlowOperators, assemble_convection

STEADY_TOL = 1e-8
RESIDUAL_TOL = 1e-10  # relative residual allowed after the first solve of a factorization
REFINE_MAX_SOLVES = 20  # LU solves one refined step may take before it factors its own system
# the penalty that governs each system's conditioning, named when a solve fails
PENALTY = {"flow": "gamma_u", "transport": "gamma_c"}

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1 or self.t_max <= 0:
            raise ValueError("time grid needs t_max > 0 and at least one step")

    @property
    def tau(self) -> float:
        return self.t_max / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass
class FlowSolution:
    """Velocity/pressure per step; after `steady_step` the fields are frozen
    and `velocity_at` keeps returning the same array object, which lets the
    transport solver skip refactorizations."""

    velocities: list = field(default_factory=list)
    pressures: list = field(default_factory=list)
    steady_step: int | None = None

    def velocity_at(self, step: int) -> np.ndarray:
        return self.velocities[min(step, len(self.velocities) - 1)]

    @property
    def final_velocity(self) -> np.ndarray:
        return self.velocities[-1]


def solve_flow(dz: Discretization, ops: FlowOperators, grid: TimeGrid,
               u0: np.ndarray | None = None) -> FlowSolution:
    """March the saddle-point flow system, stopping early at steady state."""
    nU = dz.dofs.n_velocity
    tau = grid.tau
    K = sp.bmat([[ops.M / tau + ops.A, ops.B.T], [ops.B, None]], format="csc")
    lu = _factor(K)
    u = np.zeros(nU) if u0 is None else np.asarray(u0, dtype=float).copy()
    sol = FlowSolution(velocities=[u], pressures=[np.zeros(dz.dofs.n_pressure)])
    for step in range(1, grid.n_steps + 1):
        rhs = np.concatenate([ops.Fu + ops.M @ u / tau, ops.Fp])
        x = lu.solve(rhs)
        if step == 1:
            _check_residual(K, x, rhs, "flow", step)
        unew, p = x[:nU], x[nU:]
        sol.velocities.append(unew)
        sol.pressures.append(p)
        du = np.linalg.norm(unew - u)
        if du <= STEADY_TOL * max(np.linalg.norm(unew), 1e-300):
            sol.steady_step = step
            break
        u = unew
    return sol


def _factor(K: sp.csc_matrix):
    """LU with a minimum-degree ordering of K + K^T and diagonal pivots.  On
    the flow saddle system this halves the fill of the default COLAMD
    ordering, and on the transport system it cuts it by a third.  Static
    pivoting could break down silently, so each first solve is checked."""
    return splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _failure(system: str, step: int, res: float) -> str:
    return (f"fine {system} solve at step {step} has relative residual "
            f"{res:.3e} > {RESIDUAL_TOL:g}; its conditioning is governed by "
            f"the penalty {PENALTY[system]}, which may be too small")


def _check_residual(K, x, rhs, system: str, step: int):
    res = np.linalg.norm(K @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if res > RESIDUAL_TOL:
        raise RuntimeError(_failure(system, step, res))


def _refine(lu, K, rhs) -> tuple[np.ndarray, float, int]:
    """Solve K x = rhs by iterative refinement preconditioned with `lu`, a
    factorization of a nearby system.  Corrections continue while each at
    least halves the relative residual; the one that does not has reached the
    system's rounding floor and is discarded.  Returns x, its relative
    residual and the number of LU solves."""
    scale = max(np.linalg.norm(rhs), 1e-300)
    x = lu.solve(rhs)
    r = rhs - K @ x
    res = np.linalg.norm(r) / scale
    solves = 1
    while solves < REFINE_MAX_SOLVES:
        x_new = x + lu.solve(r)
        solves += 1
        r_new = rhs - K @ x_new
        res_new = np.linalg.norm(r_new) / scale
        if res_new > 0.5 * res:
            break
        x, r, res = x_new, r_new, res_new
    return x, res, solves


@dataclass
class TransportSolution:
    times: np.ndarray
    final: np.ndarray
    reported: dict  # step index -> concentration vector
    lu_solves: int = 0  # over every step, refinement corrections included
    fallback_steps: list = field(default_factory=list)  # steps that factored their own system


def solve_transport(dz: Discretization, M: sp.spmatrix, A: sp.spmatrix,
                    F_static: np.ndarray, velocity_at, c_in, grid: TimeGrid,
                    c0: np.ndarray, report_steps=()) -> TransportSolution:
    """Implicit Euler for (M/tau + A + C(u)) c = F + M c_prev / tau.

    `velocity_at(step)` supplies the advecting velocity (may be None for pure
    diffusion).  The system of the final velocity `velocity_at(n_steps)` is
    factored before the first step and solves every step whose velocity is
    that same object.  A step with another velocity assembles that velocity's
    system once and solves it by iterative refinement against the final LU.
    If the refinement stalls above `RESIDUAL_TOL`, the step logs a warning
    and factors its own system, which then serves every later step with the
    same velocity object.
    """
    tau = grid.tau

    def system(u):
        if u is None:
            return (M / tau + A).tocsc(), F_static
        C, F_conv = assemble_convection(dz, u, c_in)
        return (M / tau + A + C).tocsc(), F_static + F_conv

    u_last = velocity_at(grid.n_steps)
    K_last, F_last = system(u_last)
    lu_last = _factor(K_last)
    checked = False  # whether lu_last's first solve has been checked
    sol = TransportSolution(times=grid.times(), final=None, reported={})
    report = set(int(s) for s in report_steps)
    cached_u = object()  # sentinel distinct from any array / None
    own_lu = None  # the factorization of the cached velocity's own system
    c = np.asarray(c0, dtype=float).copy()
    for step in range(1, grid.n_steps + 1):
        u = velocity_at(step)
        if u is u_last:
            rhs = F_last + M @ c / tau
            c = lu_last.solve(rhs)
            sol.lu_solves += 1
            if not checked:
                _check_residual(K_last, c, rhs, "transport", step)
                checked = True
        else:
            if u is not cached_u:
                K, F = system(u)
                cached_u, own_lu = u, None
            rhs = F + M @ c / tau
            if own_lu is not None:
                c = own_lu.solve(rhs)
                sol.lu_solves += 1
            else:
                c, res, solves = _refine(lu_last, K, rhs)
                sol.lu_solves += solves
                if res > RESIDUAL_TOL:
                    log.warning("%s; factoring this step's own system",
                                _failure("transport", step, res))
                    sol.fallback_steps.append(step)
                    own_lu = _factor(K)
                    c = own_lu.solve(rhs)
                    sol.lu_solves += 1
                    _check_residual(K, c, rhs, "transport", step)
        if step in report:
            sol.reported[step] = c.copy()
    sol.final = c
    return sol


def constant_concentration(dz: Discretization, value: float) -> np.ndarray:
    return np.full(dz.dofs.n_concentration, float(value))
