"""Fine-grid flow and transport time stepping."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from channelms import fine_solver
from channelms.assembly import (Discretization, assemble_convection,
                                assemble_flow, assemble_transport)
from channelms.fine_solver import (TimeGrid, constant_concentration,
                                   solve_flow, solve_transport)
from channelms.cli import load_preset, preset_names
from channelms.harness import ExperimentConfig, inflow_profile
from channelms.mesh import ChannelParams, generate_channel

from helpers import closed_copy, manufactured_transport_error


def test_time_grid():
    grid = TimeGrid(0.7, 40)
    assert np.isclose(grid.tau, 0.0175)
    assert len(grid.times()) == 41
    with pytest.raises(ValueError):
        TimeGrid(0.0, 40)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_manufactured_convergence_order_two():
    errs = [manufactured_transport_error(h)[0] for h in (0.05, 0.025, 0.0125)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r >= 3.5 for r in ratios), (errs, ratios)


def test_zero_inflow_gives_zero_flow(small_dz):
    ops = assemble_flow(small_dz, mu=1.0, rho=1.0, gamma_u=8.0,
                        inflow=lambda x: np.zeros_like(np.asarray(x)))
    sol = solve_flow(small_dz, ops, TimeGrid(0.1, 5))
    assert np.all(sol.final_velocity == 0.0)
    assert np.all(sol.pressures[-1] == 0.0)


def _solve_steady_flow(dz, ops):
    """Direct steady solve (no mass term); returns (u, p)."""
    nU = dz.dofs.n_velocity
    K = sp.bmat([[ops.A, ops.B.T], [ops.B, None]], format="csc")
    x = splu(K).solve(np.concatenate([ops.Fu, ops.Fp]))
    return x[:nU], x[nU:]


def test_poiseuille_profile():
    # a parabolic inlet profile is an exact Stokes solution in a straight
    # channel; mid-channel deviation stays below 5% at h ~ width/10
    params = ChannelParams(length=1.0, half_width=0.05, target_h=0.01)
    mesh = generate_channel(params)
    dz = Discretization.from_mesh(mesh)
    cfg = ExperimentConfig(length=1.0, half_width=0.05, target_cells=100)
    u, p = _solve_steady_flow(dz, assemble_flow(dz, 1.0, 1.0, 8.0,
                                                inflow_profile(cfg, params)))
    U = u.reshape(mesh.n_cells, 3, 2)
    mid = np.flatnonzero(np.abs(mesh.cell_centroids()[:, 0] - 0.5) < 0.05)
    y = mesh.nodes[mesh.cells[mid]][:, :, 1]
    exact = 2.0 * (1.0 - ((y - 0.05) / 0.05) ** 2)
    dev = np.linalg.norm(U[mid, :, 0] - exact) / np.linalg.norm(exact)
    assert dev < 0.05, dev


def test_flow_steady_fixed_point(small_dz):
    cfg = ExperimentConfig(length=0.5, half_width=0.05, target_cells=400)
    ops = assemble_flow(small_dz, 1.0, 1.0, 8.0, inflow_profile(cfg))
    grid = TimeGrid(0.7, 40)
    sol = solve_flow(small_dz, ops, grid)
    assert sol.steady_step is not None and sol.steady_step < 40
    again = solve_flow(small_dz, ops, grid, u0=sol.final_velocity)
    assert again.steady_step == 1
    # velocity_at keeps returning the identical frozen array past steady state
    assert sol.velocity_at(40) is sol.velocity_at(sol.steady_step)


def test_constant_state_preserved(small_dz):
    # constants are exact for an exactly divergence-free advecting field and
    # matching boundary/wall data (a discrete Stokes velocity is divergence
    # free only against P0 test functions, so it is excluded here)
    u_const = np.tile([0.8, 0.0], 3 * small_dz.mesh.n_cells)
    ops = assemble_transport(small_dz, D=0.01, alpha=0.0, gamma_c=8.0,
                             wall_bc="dbc", wall_data=1.0, c_in=1.0,
                             u_h=None)
    c0 = constant_concentration(small_dz, 1.0)
    sol = solve_transport(small_dz, ops.M, ops.A, ops.F, lambda s: u_const,
                          1.0, TimeGrid(0.2, 10), c0, report_steps=(5, 10))
    for c in (sol.final, *sol.reported.values()):
        assert np.abs(c - 1.0).max() < 1e-9


def test_closed_wall_mass_conservation(small_mesh, rng):
    dz = closed_copy(small_mesh)
    ops = assemble_transport(dz, D=0.01, alpha=0.0, gamma_c=8.0,
                             wall_bc="nbc", wall_data=0.0, c_in=0.0, u_h=None)
    M = ops.M
    c = 1.0 + 0.5 * rng.random(dz.dofs.n_concentration)
    mass0 = float(np.ones(len(c)) @ (M @ c))
    sol = solve_transport(dz, M, ops.A, ops.F, lambda s: None, 0.0,
                          TimeGrid(0.7, 40), c)
    mass1 = float(np.ones(len(c)) @ (M @ sol.final))
    assert abs(mass1 - mass0) <= 1e-8 * abs(mass0)


def test_time_step_halving_first_order(small_mesh):
    dz = closed_copy(small_mesh)
    ops = assemble_transport(dz, D=0.05, alpha=0.0, gamma_c=8.0,
                             wall_bc="nbc", wall_data=0.0, c_in=0.0, u_h=None)
    x = dz.mesh.nodes[dz.mesh.cells.reshape(-1), 0]
    c0 = np.sin(2 * np.pi * x)  # smooth nonequilibrium start
    run = lambda n: solve_transport(dz, ops.M, ops.A, ops.F, lambda s: None,
                                    0.0, TimeGrid(0.2, n), c0).final
    ref = run(80)
    e1 = np.linalg.norm(run(5) - ref)
    e2 = np.linalg.norm(run(10) - ref)
    assert 1.5 <= e1 / e2 <= 3.0, e1 / e2


@pytest.mark.parametrize("c_w,direction", [(2.0, 1.0), (0.0, -1.0)])
def test_robin_wall_flux_direction(small_mesh, c_w, direction):
    # alpha > 0 with wall data above (below) the state pushes mass in (out)
    dz = closed_copy(small_mesh)
    ops = assemble_transport(dz, D=0.01, alpha=0.5, gamma_c=8.0,
                             wall_bc="rbc", wall_data=c_w, c_in=0.0, u_h=None)
    c0 = constant_concentration(dz, 1.0)
    sol = solve_transport(dz, ops.M, ops.A, ops.F, lambda s: None, 0.0,
                          TimeGrid(0.05, 2), c0)
    ones = np.ones(len(c0))
    dmass = float(ones @ (ops.M @ (sol.final - c0)))
    assert direction * dmass > 0


def test_transport_reports_requested_steps(small_dz):
    ops = assemble_transport(small_dz, D=0.01, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0, u_h=None)
    c0 = constant_concentration(small_dz, 1.0)
    sol = solve_transport(small_dz, ops.M, ops.A, ops.F, lambda s: None, 0.0,
                          TimeGrid(0.7, 40), c0, report_steps=(10, 20, 30, 40))
    assert sorted(sol.reported) == [10, 20, 30, 40]
    assert np.array_equal(sol.reported[40], sol.final)


def test_flow_ordering_matches_default_splu():
    # the minimum-degree, diagonal-pivot factorization against scipy's
    # default COLAMD one, on every distinct flow of the desk-size presets
    seen = set()
    for name in preset_names():
        cfg = replace(load_preset(name), target_cells=3000)
        params = cfg.channel_params()
        key = (params, cfg.mu, cfg.rho, cfg.gamma_u, cfg.u_in, cfg.inflow_n,
               cfg.t_max, cfg.n_steps)
        if key in seen:
            continue
        seen.add(key)
        dz = Discretization.from_mesh(generate_channel(params))
        ops = assemble_flow(dz, cfg.mu, cfg.rho, cfg.gamma_u,
                            inflow_profile(cfg, params))
        grid = cfg.time_grid()
        sol = solve_flow(dz, ops, grid)
        K = sp.bmat([[ops.M / grid.tau + ops.A, ops.B.T], [ops.B, None]],
                    format="csc")
        lu = splu(K)
        u = np.zeros(dz.dofs.n_velocity)
        for step in range(1, len(sol.velocities)):
            u = lu.solve(np.concatenate([ops.Fu + ops.M @ u / grid.tau,
                                         ops.Fp]))[:len(u)]
            got = sol.velocities[step]
            assert np.linalg.norm(got - u) <= 1e-10 * np.linalg.norm(u), \
                (name, step)
    assert len(seen) == 2  # straight channels share one flow; test3 flips


def test_flow_residual_check(small_dz, monkeypatch):
    class Broken:
        def __init__(self, K, **kw):
            self.lu = splu(K, **kw)

        def solve(self, rhs):
            return 1.001 * self.lu.solve(rhs)

    cfg = ExperimentConfig(length=0.5, half_width=0.05, target_cells=400)
    ops = assemble_flow(small_dz, 1.0, 1.0, 8.0, inflow_profile(cfg))
    monkeypatch.setattr(fine_solver, "splu", Broken)
    with pytest.raises(RuntimeError, match="relative residual .* > 1e-10"):
        solve_flow(small_dz, ops, TimeGrid(0.1, 5))


@pytest.mark.parametrize("preset", ["test1_rbc", "test3_unstructured"])
def test_transport_ordering_matches_default_splu(preset):
    # the minimum-degree, diagonal-pivot factorization against scipy's
    # default COLAMD one, at every step and every refactorization while the
    # fine flow settles
    cfg = replace(load_preset(preset), target_cells=1500)
    params = cfg.channel_params()
    dz = Discretization.from_mesh(generate_channel(params))
    grid = cfg.time_grid()
    flow = solve_flow(dz, assemble_flow(dz, cfg.mu, cfg.rho, cfg.gamma_u,
                                        inflow_profile(cfg, params)), grid)
    ops = assemble_transport(dz, cfg.diffusion, cfg.alpha, cfg.gamma_c,
                             cfg.bc_kind, cfg.wall_data(), cfg.c_in, None)
    c0 = constant_concentration(dz, cfg.c_0)
    steps = range(1, grid.n_steps + 1)
    sol = solve_transport(dz, ops.M, ops.A, ops.F, flow.velocity_at, cfg.c_in,
                          grid, c0, report_steps=steps)
    c, cached_u = c0, None
    for step in steps:
        u = flow.velocity_at(step)
        if u is not cached_u:
            C, F_conv = assemble_convection(dz, u, cfg.c_in)
            lu = splu((ops.M / grid.tau + ops.A + C).tocsc())
            cached_u = u
        c = lu.solve(ops.F + F_conv + ops.M @ c / grid.tau)
        got = sol.reported[step]
        assert np.linalg.norm(got - c) <= 1e-12 * np.linalg.norm(c), step
    assert flow.steady_step > 2  # several factorizations were checked


def test_transport_residual_check(small_dz, monkeypatch):
    # the first solve after every factorization is checked: only the second
    # factorization is broken, and the step that makes it fails
    made = []

    class BrokenSecond:
        def __init__(self, K, **kw):
            self.lu = splu(K, **kw)
            self.scale = 1.001 if made else 1.0
            made.append(self)

        def solve(self, rhs):
            return self.scale * self.lu.solve(rhs)

    ops = assemble_transport(small_dz, D=0.01, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0, u_h=None)
    u1 = np.tile([0.5, 0.0], 3 * small_dz.mesh.n_cells)
    u2 = 2.0 * u1
    monkeypatch.setattr(fine_solver, "splu", BrokenSecond)
    with pytest.raises(RuntimeError,
                       match="fine transport solve has relative residual .* > 1e-10"):
        solve_transport(small_dz, ops.M, ops.A, ops.F,
                        lambda s: u1 if s < 3 else u2, 0.0, TimeGrid(0.1, 5),
                        constant_concentration(small_dz, 1.0))
    assert len(made) == 2
