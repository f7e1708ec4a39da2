"""Reduced-order flow/transport solves: projection and Galerkin properties."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from channelms.assembly import (assemble_convection, assemble_flow,
                                assemble_transport)
from channelms.coarse_solver import (DomainBlocks, MultiscaleSpace,
                                     PairPattern, build_multiscale_space,
                                     galerkin,
                                     pressure_indicators, project_flow,
                                     project_transport, solve_coarse_flow,
                                     solve_coarse_transport)
from channelms.fine_solver import (TimeGrid, constant_concentration,
                                   solve_flow, solve_transport)
from channelms.harness import ExperimentConfig, inflow_profile
from channelms.mesh import partition_coarse
from channelms.transport_basis import build_concentration_space
from channelms.velocity_basis import build_velocity_space

import oracles


def _identity_space(dz, partition, with_c=False):
    return MultiscaleSpace(
        R_u=sp.identity(dz.dofs.n_velocity, format="csr"),
        R_p=sp.identity(dz.mesh.n_cells, format="csr"),
        R_c=sp.identity(dz.dofs.n_concentration, format="csr") if with_c else None,
        partition=partition,
    )


def _flow_ops(dz, cfg_kw):
    cfg = ExperimentConfig(**cfg_kw)
    return assemble_flow(dz, mu=1.0, rho=1.0, gamma_u=8.0,
                         inflow=inflow_profile(cfg))


def test_pressure_indicators(small_dz, small_partition):
    Rp = pressure_indicators(small_dz, small_partition)
    Rp = Rp.toarray()
    assert Rp.shape == (small_partition.n_domains, small_dz.mesh.n_cells)
    assert set(np.unique(Rp)) <= {0.0, 1.0}
    assert np.all(Rp.sum(axis=0) == 1.0)  # every cell in exactly one domain
    counts = np.bincount(small_partition.cell_to_domain,
                         minlength=small_partition.n_domains)
    assert np.array_equal(Rp.sum(axis=1), counts)


def test_identity_projection_matches_fine_flow(tiny_dz, tiny_partition):
    ops = _flow_ops(tiny_dz, dict(length=1.0, half_width=0.1, target_cells=8))
    grid = TimeGrid(0.5, 20)
    fine = solve_flow(tiny_dz, ops, grid)
    space = _identity_space(tiny_dz, tiny_partition)
    coarse = solve_coarse_flow(space, project_flow(space, ops), grid)
    uf, uc = fine.final_velocity, coarse.final_velocity
    assert np.linalg.norm(uc - uf) < 1e-8 * max(np.linalg.norm(uf), 1.0)


def test_projected_forms_symmetric_definite(small_dz, small_partition):
    ops = _flow_ops(small_dz, dict(length=0.5, half_width=0.05, target_cells=400))
    vs = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0)
    cops = project_flow(build_multiscale_space(small_dz, small_partition, vs), ops)
    for K in (cops.M, cops.A):
        assert np.abs(K - K.T).max() < 1e-10 * np.abs(K).max()
    assert np.linalg.eigvalsh(cops.M).min() > 0
    assert np.linalg.eigvalsh(cops.A).min() > 0


def test_zero_inflow_gives_zero_coarse_flow(small_dz, small_partition):
    ops = assemble_flow(small_dz, mu=1.0, rho=1.0, gamma_u=8.0,
                        inflow=lambda x: np.zeros_like(np.asarray(x)))
    vs = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0)
    space = build_multiscale_space(small_dz, small_partition, vs)
    sol = solve_coarse_flow(space, project_flow(space, ops), TimeGrid(0.1, 5))
    assert np.all(sol.final_velocity == 0.0)


def test_steady_coarse_galerkin_residual(small_dz, small_partition):
    # at the fixed point the reduced equations are satisfied against every
    # basis row: the projected momentum and continuity residuals vanish
    ops = _flow_ops(small_dz, dict(length=0.5, half_width=0.05, target_cells=400))
    vs = build_velocity_space(small_dz, small_partition, "type2", 3, 1.0, 8.0)
    space = build_multiscale_space(small_dz, small_partition, vs)
    sol = solve_coarse_flow(space, project_flow(space, ops),
                            TimeGrid(50.0, 400), steady_tol=1e-12)
    assert sol.steady_step is not None
    u = sol.final_velocity
    p = np.asarray(space.R_p.T @ sol.pressures[-1])
    res_u = np.asarray(space.R_u @ (ops.Fu - ops.A @ u - ops.B.T @ p))
    res_p = np.asarray(space.R_p @ (ops.Fp - ops.B @ u))
    scale = np.linalg.norm(np.asarray(space.R_u @ ops.Fu)) + 1.0
    assert np.linalg.norm(res_u) < 1e-6 * scale
    assert np.linalg.norm(res_p) < 1e-6 * scale


def test_identity_projection_matches_fine_transport(small_dz, small_partition, rng):
    ops = assemble_transport(small_dz, D=0.05, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=1.0, u_h=None)
    u_const = np.tile([0.4, 0.0], 3 * small_dz.mesh.n_cells)
    c0 = rng.random(small_dz.dofs.n_concentration)
    grid = TimeGrid(0.2, 8)
    fine = solve_transport(small_dz, ops.M, ops.A, ops.F, lambda s: u_const,
                           1.0, grid, c0, report_steps=(4, 8))
    space = _identity_space(small_dz, small_partition, with_c=True)
    cops = project_transport(small_dz, space, ops.M, ops.A, ops.F, c0)
    (coarse,) = solve_coarse_transport(cops, lambda s: u_const, 1.0, grid,
                                       report_steps=(4, 8))
    ref = np.linalg.norm(fine.final)
    assert np.linalg.norm(coarse.final - fine.final) < 1e-8 * ref
    assert np.linalg.norm(coarse.reported[4] - fine.reported[4]) < 1e-8 * ref


def test_reduced_transport_step_equation(small_dz, small_partition):
    # one implicit step of the reduced system, recomputed densely by hand
    ops = assemble_transport(small_dz, D=0.05, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0, u_h=None)
    cs = build_concentration_space(small_dz, small_partition, "type2", 2,
                                   "rbc", "elliptic", 0.05, 0.01, 8.0)
    space = MultiscaleSpace(R_u=None, R_p=None, R_c=cs.R,
                            partition=small_partition)
    c0 = constant_concentration(small_dz, 1.0)
    grid = TimeGrid(0.1, 1)
    cops = project_transport(small_dz, space, ops.M, ops.A, ops.F, c0)
    (sol,) = solve_coarse_transport(cops, lambda s: None, 0.0, grid)
    Rc = cs.R.toarray()
    M_H = Rc @ ops.M.toarray() @ Rc.T
    A_H = Rc @ ops.A.toarray() @ Rc.T
    cH0 = np.linalg.solve(M_H, Rc @ (ops.M @ c0))
    cH1 = np.linalg.solve(M_H / grid.tau + A_H,
                          Rc @ ops.F + M_H @ cH0 / grid.tau)
    assert np.allclose(sol.coefficients, cH1, rtol=1e-9, atol=1e-12)
    assert np.allclose(sol.final, Rc.T @ cH1, rtol=1e-9, atol=1e-12)


def _with_zero_row(R):
    """R with a zero row appended: any space that keeps it is exactly
    singular (LU leaves a zero row zero, so its pivot is exactly 0)."""
    return sp.vstack([R, sp.csr_matrix((1, R.shape[1]))], format="csr")


def test_singular_flow_raises_naming_system_and_m(small_dz, small_partition):
    ops = _flow_ops(small_dz, dict(length=0.5, half_width=0.05, target_cells=400))
    vs = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0)
    space = build_multiscale_space(small_dz, small_partition, vs, Mu=2)
    space.R_u = _with_zero_row(space.R_u)
    with pytest.raises(np.linalg.LinAlgError,
                       match="singular coarse flow system at M_u=2: zero pivot"):
        solve_coarse_flow(space, project_flow(space, ops), TimeGrid(0.1, 5))


def test_singular_size_fails_alone_in_shared_transport(small_dz, small_partition):
    # M_c=1 keeps the original rows, M_c=2 also keeps the zero row; only the
    # singular size fails, and the other still matches a solve of its own
    ops = assemble_transport(small_dz, D=0.05, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0, u_h=None)
    cs = build_concentration_space(small_dz, small_partition, "type2", 2,
                                   "rbc", "elliptic", 0.05, 0.01, 8.0)
    n = cs.R.shape[0]
    rows = {1: np.arange(n), 2: np.arange(n + 1)}
    space = MultiscaleSpace(R_u=None, R_p=None,
                            R_c=_with_zero_row(cs.R),
                            partition=small_partition,
                            concentration_space=SimpleNamespace(rows=rows.get))
    u = np.tile([0.4, 0.0], 3 * small_dz.mesh.n_cells)
    c0 = constant_concentration(small_dz, 1.0)
    grid = TimeGrid(0.2, 4)
    cops = project_transport(small_dz, space, ops.M, ops.A, ops.F, c0)
    ok, failed = solve_coarse_transport(cops, lambda s: u, 0.0, grid, (1, 2),
                                        report_steps=(2,))
    assert isinstance(failed, np.linalg.LinAlgError)
    assert "singular coarse transport mass matrix at M_c=2" in str(failed)
    own = MultiscaleSpace(R_u=None, R_p=None, R_c=cs.R,
                          partition=small_partition)
    own_ops = project_transport(small_dz, own, ops.M, ops.A, ops.F, c0)
    (want,) = solve_coarse_transport(own_ops, lambda s: u, 0.0, grid,
                                     report_steps=(2,))
    assert np.array_equal(ok.coefficients, want.coefficients)
    assert np.array_equal(ok.reported[2], want.reported[2])


def _close_to_oracle(H, X, L, R):
    want = oracles.galerkin(X, L, R)
    assert H.shape == want.shape
    assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("mode", ["structured", "unstructured"])
@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_galerkin_matches_sparse_products(small_mesh, small_dz, mode, kind, rng):
    dz = small_dz
    part = partition_coarse(small_mesh, 4, mode=mode)
    cells = part.cell_to_domain
    vs = build_velocity_space(dz, part, kind, 2, 1.0, 8.0)
    cs = build_concentration_space(dz, part, kind, 2, "rbc", "elliptic",
                                   0.05, 0.01, 8.0)
    Ru, Rp, Rc = vs.R, pressure_indicators(dz, part), cs.R
    U = DomainBlocks(Ru, np.repeat(cells, 6))
    P = DomainBlocks(Rp, cells)
    C = DomainBlocks(Rc, np.repeat(cells, 3))
    flow = _flow_ops(dz, dict(length=0.5, half_width=0.05, target_cells=400))
    tops = assemble_transport(dz, D=0.05, alpha=0.01, gamma_c=8.0,
                              wall_bc="rbc", wall_data=1.0, c_in=1.0, u_h=None)
    for X, B, R in ((flow.M, U, Ru), (flow.A, U, Ru),
                    (tops.M, C, Rc), (tops.A, C, Rc)):
        for symmetric in (False, True):
            H = galerkin(X, B, B, symmetric=symmetric)
            _close_to_oracle(H, X, R, R)
        assert np.array_equal(H, H.T)
    _close_to_oracle(galerkin(flow.B, P, U), flow.B, Rp, Ru)
    conv, _ = assemble_convection(dz, np.tile([0.4, 0.1], 3 * dz.mesh.n_cells),
                                  1.0)
    assert conv.nnz
    _close_to_oracle(galerkin(conv, C, C), conv, Rc, Rc)
    # one gather plan projects every convection matrix of the fixed pattern
    plan = PairPattern(conv, C, C)
    for _ in range(2):
        other, _ = assemble_convection(dz, rng.standard_normal(dz.dofs.n_velocity),
                                       1.0)
        _close_to_oracle(plan.project(other), other, Rc, Rc)


def test_galerkin_identity_and_zero_rows(small_dz, small_partition):
    dz, cells = small_dz, small_partition.cell_to_domain
    dof_domain = np.repeat(cells, 3)
    tops = assemble_transport(dz, D=0.05, alpha=0.01, gamma_c=8.0,
                              wall_bc="rbc", wall_data=1.0, c_in=1.0, u_h=None)
    eye = DomainBlocks(sp.identity(dz.dofs.n_concentration, format="csr"),
                       dof_domain)
    assert np.array_equal(galerkin(tops.A, eye, eye), tops.A.toarray())

    cs = build_concentration_space(dz, small_partition, "type1", 2, "rbc",
                                   "elliptic", 0.05, 0.01, 8.0)
    R = cs.R
    padded = DomainBlocks(_with_zero_row(R), dof_domain)
    H = galerkin(tops.A, padded, padded)
    n = R.shape[0]
    assert np.all(H[n] == 0.0) and np.all(H[:, n] == 0.0)
    plain = DomainBlocks(R, dof_domain)
    assert np.array_equal(H[:n, :n], galerkin(tops.A, plain, plain))


def test_domain_blocks_misuse_is_rejected(small_partition):
    dof_domain = np.repeat(small_partition.cell_to_domain, 3)
    a = np.flatnonzero(dof_domain == 0)[0]
    b = np.flatnonzero(dof_domain == 1)[0]
    R = sp.csr_matrix((np.ones(3), ([0, 1, 1], [a, a, b])),
                      shape=(2, len(dof_domain)))
    with pytest.raises(ValueError, match="projection row 1 spans domains 0 and 1"):
        DomainBlocks(R, dof_domain)
    eye = sp.identity(len(dof_domain), format="csr")
    L, R = DomainBlocks(eye, dof_domain), DomainBlocks(eye, dof_domain)
    with pytest.raises(ValueError, match="one set of blocks"):
        galerkin(eye, L, R, symmetric=True)
    with pytest.raises(ValueError, match="does not have the pattern"):
        PairPattern(eye, L, R).project(eye[:, ::-1])
