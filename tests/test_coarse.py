"""Reduced-order flow/transport solves: projection and Galerkin properties."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from channelms.assembly import (assemble_convection, assemble_flow,
                                assemble_transport)
from channelms.coarse_solver import (DomainBlocks, PairPattern, galerkin,
                                     pressure_space, project_flow,
                                     project_transport, solve_coarse_flow,
                                     solve_coarse_transport)
from channelms.fine_solver import (TimeGrid, constant_concentration,
                                   solve_flow, solve_transport)
from channelms.harness import ExperimentConfig, inflow_profile
from channelms.mesh import partition_coarse
from channelms.spectral import NestedSpace
from channelms.transport_basis import build_concentration_space
from channelms.velocity_basis import build_velocity_space

import oracles
from helpers import identity_space, zero_mode


def _flow_ops(dz, cfg_kw):
    cfg = ExperimentConfig(**cfg_kw)
    return assemble_flow(dz, mu=1.0, rho=1.0, gamma_u=8.0,
                         inflow=inflow_profile(cfg))


def test_pressure_indicators(small_dz, small_partition):
    Rp = pressure_space(small_partition).R.toarray()
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
    velocity = identity_space("velocity", tiny_partition, 6)
    pressure = identity_space("pressure", tiny_partition, 1)
    coarse = solve_coarse_flow(velocity, project_flow(velocity, pressure, ops),
                               grid)
    uf, uc = fine.final_velocity, coarse.final_velocity
    assert np.linalg.norm(uc - uf) < 1e-8 * max(np.linalg.norm(uf), 1.0)


def test_projected_forms_symmetric_definite(small_dz, small_partition):
    ops = _flow_ops(small_dz, dict(length=0.5, half_width=0.05, target_cells=400))
    vs = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0)
    cops = project_flow(vs, pressure_space(small_partition), ops)
    for K in (cops.M, cops.A):
        assert np.abs(K - K.T).max() < 1e-10 * np.abs(K).max()
    assert np.linalg.eigvalsh(cops.M).min() > 0
    assert np.linalg.eigvalsh(cops.A).min() > 0


def test_zero_inflow_gives_zero_coarse_flow(small_dz, small_partition):
    ops = assemble_flow(small_dz, mu=1.0, rho=1.0, gamma_u=8.0,
                        inflow=lambda x: np.zeros_like(np.asarray(x)))
    vs = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0)
    sol = solve_coarse_flow(vs, project_flow(vs, pressure_space(small_partition),
                                             ops), TimeGrid(0.1, 5))
    assert np.all(sol.final_velocity == 0.0)


def test_steady_coarse_galerkin_residual(small_dz, small_partition):
    # at the fixed point the reduced equations are satisfied against every
    # basis row: the projected momentum and continuity residuals vanish
    ops = _flow_ops(small_dz, dict(length=0.5, half_width=0.05, target_cells=400))
    vs = build_velocity_space(small_dz, small_partition, "type2", 3, 1.0, 8.0)
    ps = pressure_space(small_partition)
    Rp = ps.R
    sol = solve_coarse_flow(vs, project_flow(vs, ps, ops),
                            TimeGrid(50.0, 400), steady_tol=1e-12)
    assert sol.steady_step is not None
    u = sol.final_velocity
    p = np.asarray(Rp.T @ sol.pressures[-1])
    res_u = np.asarray(vs.R @ (ops.Fu - ops.A @ u - ops.B.T @ p))
    res_p = np.asarray(Rp @ (ops.Fp - ops.B @ u))
    scale = np.linalg.norm(np.asarray(vs.R @ ops.Fu)) + 1.0
    assert np.linalg.norm(res_u) < 1e-6 * scale
    assert np.linalg.norm(res_p) < 1e-6 * scale


def test_identity_projection_matches_fine_transport(small_dz, small_partition, rng):
    ops = assemble_transport(small_dz, D=0.05, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=1.0)
    u_const = np.tile([0.4, 0.0], 3 * small_dz.mesh.n_cells)
    c0 = rng.random(small_dz.dofs.n_concentration)
    grid = TimeGrid(0.2, 8)
    fine = solve_transport(small_dz, ops.M, ops.A, ops.F, lambda s: u_const,
                           1.0, grid, c0, report_steps=(4, 8))
    space = identity_space("concentration", small_partition, 3)
    cops = project_transport(small_dz, space, ops.M, ops.A, ops.F, c0)
    (coarse,) = solve_coarse_transport(cops, lambda s: u_const, 1.0, grid,
                                       report_steps=(4, 8))
    ref = np.linalg.norm(fine.final)
    assert np.linalg.norm(coarse.final - fine.final) < 1e-8 * ref
    assert np.linalg.norm(coarse.reported[4] - fine.reported[4]) < 1e-8 * ref


def _backward_error(K, c, b):
    """Normwise backward error  ‖K c − b‖ / (‖K‖‖c‖ + ‖b‖)  of c in K c = b."""
    return np.linalg.norm(K @ c - b) / (np.linalg.norm(K, 2) * np.linalg.norm(c)
                                        + np.linalg.norm(b))


def test_reduced_transport_step_equation(small_dz, small_partition):
    # one implicit step of the reduced system against its dense equations.
    # cond(M_H) ~ 1e7 lets two correct solves differ by ~1e-9 relative, so
    # the check is the backward error of each equation, not the coefficients
    ops = assemble_transport(small_dz, D=0.05, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0)
    cs = build_concentration_space(small_dz, small_partition, "type2", 2,
                                   "rbc", "elliptic", 0.05, 0.01, 8.0)
    c0 = constant_concentration(small_dz, 1.0)
    grid = TimeGrid(0.1, 1)
    cops = project_transport(small_dz, cs, ops.M, ops.A, ops.F, c0)
    (sol,) = solve_coarse_transport(cops, lambda s: None, 0.0, grid)
    Rc = cs.R.toarray()
    M_H = Rc @ ops.M.toarray() @ Rc.T
    A_H = Rc @ ops.A.toarray() @ Rc.T
    m0 = Rc @ (ops.M @ c0)
    cH0 = np.linalg.solve(M_H, m0)  # the mass projection of c0
    assert _backward_error(M_H, cH0, m0) < 1e-12
    cH1 = sol.coefficients
    assert _backward_error(M_H / grid.tau + A_H, cH1,
                           Rc @ ops.F + M_H @ cH0 / grid.tau) < 1e-12
    assert _backward_error(Rc.T, cH1, sol.final) < 1e-12


def test_singular_flow_raises_naming_system_and_m(small_dz, small_partition):
    # a zeroed second mode on domain 0: M_u=2 keeps it, M_u=1 does not
    ops = _flow_ops(small_dz, dict(length=0.5, half_width=0.05, target_cells=400))
    vs = zero_mode(build_velocity_space(small_dz, small_partition, "type1", 2,
                                        1.0, 8.0), 1)
    cops = project_flow(vs, pressure_space(small_partition), ops)
    with pytest.raises(np.linalg.LinAlgError,
                       match="singular coarse flow system at M_u=2: zero pivot"):
        solve_coarse_flow(vs, cops.restrict(2, vs.rows(2)), TimeGrid(0.1, 5))
    ok = solve_coarse_flow(vs, cops.restrict(1, vs.rows(1)), TimeGrid(0.1, 5))
    assert np.all(np.isfinite(ok.final_velocity))


def test_singular_size_fails_alone_in_shared_transport(small_dz, small_partition):
    # M_c=2 keeps a zeroed second mode on domain 0, M_c=1 does not; only the
    # singular size fails, and the other still matches the M_c=1 solve of the
    # space without the zeroed mode
    ops = assemble_transport(small_dz, D=0.05, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0)
    cs = build_concentration_space(small_dz, small_partition, "type2", 2,
                                   "rbc", "elliptic", 0.05, 0.01, 8.0)
    u = np.tile([0.4, 0.0], 3 * small_dz.mesh.n_cells)
    c0 = constant_concentration(small_dz, 1.0)
    grid = TimeGrid(0.2, 4)
    cops = project_transport(small_dz, zero_mode(cs, 1), ops.M, ops.A, ops.F, c0)
    ok, failed = solve_coarse_transport(cops, lambda s: u, 0.0, grid, (1, 2),
                                        report_steps=(2,))
    assert isinstance(failed, np.linalg.LinAlgError)
    assert "singular coarse transport mass matrix at M_c=2" in str(failed)
    own_ops = project_transport(small_dz, cs, ops.M, ops.A, ops.F, c0)
    (want,) = solve_coarse_transport(own_ops, lambda s: u, 0.0, grid, (1,),
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
    vs = build_velocity_space(dz, part, kind, 2, 1.0, 8.0)
    cs = build_concentration_space(dz, part, kind, 2, "rbc", "elliptic",
                                   0.05, 0.01, 8.0)
    ps = pressure_space(part)
    Ru, Rp, Rc = vs.R, ps.R, cs.R
    U, P, C = DomainBlocks(vs), DomainBlocks(ps), DomainBlocks(cs)
    flow = _flow_ops(dz, dict(length=0.5, half_width=0.05, target_cells=400))
    tops = assemble_transport(dz, D=0.05, alpha=0.01, gamma_c=8.0,
                              wall_bc="rbc", wall_data=1.0, c_in=1.0)
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


@pytest.mark.parametrize("mode", ["structured", "unstructured"])
@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_domain_blocks_are_the_rows_of_the_space(small_mesh, small_dz, mode, kind):
    # each domain's dense block is its rows of R on its dofs, and every row
    # of R belongs to exactly one domain
    part = partition_coarse(small_mesh, 4, mode=mode)
    for space in (build_velocity_space(small_dz, part, kind, 2, 1.0, 8.0),
                  pressure_space(part),
                  build_concentration_space(small_dz, part, kind, 2, "rbc",
                                            "elliptic", 0.05, 0.01, 8.0)):
        blocks, R = DomainBlocks(space), space.R
        assert len(blocks.V) == part.n_domains
        for d, (rows, V) in enumerate(zip(blocks.rows, blocks.V)):
            dofs = blocks.perm[blocks.offsets[d]:blocks.offsets[d + 1]]
            assert np.array_equal(V, R[rows][:, dofs].toarray())
        owners = np.bincount(np.concatenate(blocks.rows), minlength=R.shape[0])
        assert len(owners) == R.shape[0] and np.all(owners == 1)


def test_galerkin_identity_and_zero_rows(small_dz, small_partition):
    dz = small_dz
    tops = assemble_transport(dz, D=0.05, alpha=0.01, gamma_c=8.0,
                              wall_bc="rbc", wall_data=1.0, c_in=1.0)
    eye = DomainBlocks(identity_space("concentration", small_partition, 3))
    A = tops.A.toarray()
    assert np.array_equal(galerkin(tops.A, eye, eye), A[np.ix_(eye.perm, eye.perm)])

    # a zeroed mode (row 1, the second mode of the first block) projects to
    # zero and leaves every other entry as it was
    cs = build_concentration_space(dz, small_partition, "type1", 2, "rbc",
                                   "elliptic", 0.05, 0.01, 8.0)
    zeroed = DomainBlocks(zero_mode(cs, 1))
    H = galerkin(tops.A, zeroed, zeroed)
    assert np.all(H[1] == 0.0) and np.all(H[:, 1] == 0.0)
    plain = DomainBlocks(cs)
    keep = np.flatnonzero(np.arange(len(H)) != 1)
    assert np.array_equal(H[np.ix_(keep, keep)],
                          galerkin(tops.A, plain, plain)[np.ix_(keep, keep)])


def test_domain_blocks_misuse_is_rejected(small_partition):
    ps = pressure_space(small_partition)
    n = ps.R.shape[1]
    b = ps.blocks[0]
    other = replace(b, dofs=b.dofs[::-1])
    with pytest.raises(ValueError, match="pressure blocks of domain 0 disagree "
                                         "on their dofs"):
        DomainBlocks(NestedSpace.stack("pressure", [b, other, *ps.blocks[1:]], n))
    with pytest.raises(ValueError, match="the dofs of the pressure domains are "
                                         f"not a permutation of its {n} fine dofs"):
        DomainBlocks(NestedSpace.stack("pressure", [b, *ps.blocks[2:]], n))
    eye = sp.identity(n, format="csr")
    L, R = DomainBlocks(ps), DomainBlocks(ps)
    with pytest.raises(ValueError, match="one set of blocks"):
        galerkin(eye, L, R, symmetric=True)
    with pytest.raises(ValueError, match="does not have the pattern"):
        PairPattern(eye, L, R).project(eye[:, ::-1])
