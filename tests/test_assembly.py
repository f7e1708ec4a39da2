"""Entry-wise comparison of every assembled operator against the dense
brute-force oracle, plus structural operator invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import oracles
from helpers import closed_copy
from channelms.assembly import (DATA_PENALTY, Discretization, LocalDomain,
                                assemble_convection, assemble_flow,
                                assemble_local_concentration_forms,
                                assemble_local_stokes,
                                assemble_local_velocity_forms,
                                assemble_transport, expand_to_vector,
                                local_diffusion_with_bc, local_interior_form,
                                local_upwind_convection, scalar_mass,
                                scalar_stiffness)
from channelms.harness import inflow_profile, ExperimentConfig
from channelms.mesh import ChannelParams, generate_channel

TOL = 1e-12

U_CONST = np.array([1.0, 0.3])


@pytest.fixture(scope="module")
def md(tiny_mesh):
    return oracles.MeshData(tiny_mesh)


def _diff(sparse_mat, dense_mat):
    return np.abs(np.asarray(sp.csr_matrix(sparse_mat).todense()) - dense_mat).max()


def test_scalar_mass_oracle(tiny_dz, md):
    assert _diff(scalar_mass(tiny_dz, 1.7), oracles.scalar_mass(md, 1.7)) < TOL


def test_scalar_stiffness_oracle(tiny_dz, md):
    assert _diff(scalar_stiffness(tiny_dz, 0.3),
                 oracles.scalar_stiffness(md, 0.3)) < TOL


@pytest.mark.parametrize("bc", ["dbc", "nbc", "rbc"])
def test_transport_diffusion_oracle(tiny_dz, md, bc):
    ops = assemble_transport(tiny_dz, D=0.05, alpha=0.7, gamma_c=8.0,
                             wall_bc=bc, wall_data=1.0, c_in=0.0, u_h=None)
    ref = oracles.transport_diffusion(md, 0.05, 0.7, 8.0, bc)
    assert _diff(ops.A, ref) < TOL
    assert _diff(ops.M, oracles.scalar_mass(md)) < TOL


def test_flow_operator_oracle(tiny_dz, md):
    cfg = ExperimentConfig(length=1.0, half_width=0.1, target_cells=8)
    ops = assemble_flow(tiny_dz, mu=1.3, rho=0.9, gamma_u=8.0,
                        inflow=inflow_profile(cfg))
    assert _diff(ops.A, oracles.flow_viscous(md, 1.3, 8.0)) < TOL
    assert _diff(ops.M, oracles.expand_vector(oracles.scalar_mass(md, 0.9))) < TOL
    assert _diff(ops.B, oracles.divergence_coupling(md)) < TOL


@pytest.mark.parametrize("params", [
    dict(),
    dict(profile="sinusoidal", amplitude=0.02, wavelength=0.25),
    dict(partition_mode="unstructured", seed=3),
], ids=["straight", "sinusoidal", "unstructured"])
def test_flow_load_matches_per_facet_loop(params):
    cfg = ExperimentConfig(length=1.0, half_width=0.05, target_cells=400, **params)
    dz = Discretization.from_mesh(generate_channel(cfg.channel_params()))
    ops = assemble_flow(dz, mu=1.3, rho=0.9, gamma_u=8.0, inflow=inflow_profile(cfg))
    Fu, Fp = oracles.flow_rhs(dz, 1.3, 8.0, inflow_profile(cfg))
    assert np.abs(Fu).max() > 0 and np.abs(Fp).max() > 0
    assert np.abs(ops.Fu - Fu).max() <= 1e-14 * np.abs(Fu).max()
    assert np.abs(ops.Fp - Fp).max() <= 1e-14 * np.abs(Fp).max()


def test_convection_oracle(tiny_dz, md):
    u_h = np.tile(U_CONST, 3 * tiny_dz.mesh.n_cells)
    C, _ = assemble_convection(tiny_dz, u_h, c_in=0.0)
    assert _diff(C, oracles.convection_constant_u(md, U_CONST)) < TOL


@pytest.mark.parametrize("flip_seed", [None, 3])  # structured, unstructured
def test_convection_matches_entrywise_assembly(flip_seed, rng):
    # the fixed-pattern operator against the per-call COO assembly it
    # replaced: random velocities (their normal component changes sign from
    # facet to facet and side to side) and zero
    dz = Discretization.from_mesh(generate_channel(ChannelParams(
        length=0.5, half_width=0.05, target_cells=400, flip_seed=flip_seed)))
    c_in = lambda x: 1.0 + x[:, 0] - 3.0 * x[:, 1]
    loads = []
    for u_h in (rng.standard_normal(dz.dofs.n_velocity),
                rng.uniform(-1.0, 3.0, dz.dofs.n_velocity),
                np.zeros(dz.dofs.n_velocity)):
        C, F = assemble_convection(dz, u_h, c_in)
        C_ref, F_ref = oracles.assemble_convection(dz, u_h, c_in)
        assert _diff(C, C_ref.toarray()) <= 1e-13 * np.abs(C_ref).max()
        assert np.array_equal(F, F_ref)
        loads.append(np.count_nonzero(F_ref))
    assert loads[0] and loads[1] and not loads[2]
    assert dz.convection_plan() is dz.convection_plan()  # built once


def test_convection_plan_follows_facet_markers(small_mesh, rng):
    # a plan is built for the facet markers it sees, and rebuilt when they
    # change: closing the channel drops the inflow and outflow terms
    dz = closed_copy(small_mesh)
    mesh, closed_markers = dz.mesh, dz.mesh.facet_marker.copy()
    u_h = rng.standard_normal(dz.dofs.n_velocity)
    mesh.facet_marker[:] = small_mesh.facet_marker  # open the copy
    open_plan = dz.convection_plan()
    mesh.facet_marker[:] = closed_markers
    closed, _ = assemble_convection(dz, u_h, 0.0)
    ref, _ = oracles.assemble_convection(dz, u_h, 0.0)
    assert _diff(closed, ref.toarray()) <= 1e-13 * np.abs(ref).max()
    assert dz.convection_plan() is not open_plan
    mesh.facet_marker[:] = small_mesh.facet_marker
    assert len(dz.convection_plan().onesided) == len(open_plan.onesided)


def test_local_concentration_forms_oracle(tiny_dz, md, tiny_partition):
    for i in range(tiny_partition.n_domains):
        dom = LocalDomain.build(tiny_dz.mesh, tiny_partition, i)
        A, S = assemble_local_concentration_forms(
            tiny_dz, dom, local_interior_form(tiny_dz, dom, 0.4, 8.0))
        cells = tiny_partition.domain_cells(i)
        assert _diff(A, oracles.local_interior_form(md, cells, 0.4, 8.0)) < TOL
        assert _diff(S, oracles.local_boundary_mass(md, cells)) < TOL


def test_local_velocity_forms_oracle(tiny_dz, md, tiny_partition):
    for i in range(tiny_partition.n_domains):
        dom = LocalDomain.build(tiny_dz.mesh, tiny_partition, i)
        A, S = assemble_local_velocity_forms(
            tiny_dz, dom, local_interior_form(tiny_dz, dom, 2.0, 8.0))
        cells = tiny_partition.domain_cells(i)
        assert _diff(A, oracles.expand_vector(
            oracles.local_interior_form(md, cells, 2.0, 8.0))) < TOL
        assert _diff(S, oracles.expand_vector(
            oracles.local_boundary_mass(md, cells))) < TOL


def test_local_diffusion_with_bc_oracle(tiny_dz, md, tiny_partition):
    for i in range(tiny_partition.n_domains):
        dom = LocalDomain.build(tiny_dz.mesh, tiny_partition, i)
        cells = tiny_partition.domain_cells(i)
        A = local_diffusion_with_bc(tiny_dz, dom, 0.01, 8.0, dom.gamma_e,
                                    dom.gamma_w, 0.5,
                                    local_interior_form(tiny_dz, dom, 0.01, 8.0))
        ref = oracles.local_diffusion_with_bc(md, cells, 0.01, 8.0,
                                              dom.gamma_e, dom.gamma_w, 0.5)
        assert _diff(A, ref) < TOL


def test_local_stokes_oracle(tiny_dz, md, tiny_partition):
    for i in range(tiny_partition.n_domains):
        dom = LocalDomain.build(tiny_dz.mesh, tiny_partition, i)
        cells = tiny_partition.domain_cells(i)
        A, B = assemble_local_stokes(tiny_dz, dom, 1.0, 8.0,
                                     local_interior_form(tiny_dz, dom, 1.0, 8.0))
        bd = dom.boundary()
        As = oracles.local_interior_form(md, cells, 1.0, 8.0)
        full = oracles.sipg_onesided(md, bd, dom.inside_side(tiny_dz.mesh, bd), 1.0,
                                     8.0 * DATA_PENALTY)
        sd = (3 * cells[:, None] + np.arange(3)[None, :]).reshape(-1)
        As = As + full[np.ix_(sd, sd)]
        # the strong boundary penalty scales entries to ~1e11: compare relative
        ref = oracles.expand_vector(As)
        scale = np.abs(ref).max()
        assert _diff(A, ref) < TOL * scale
        assert _diff(B, oracles.local_stokes_b(md, cells)) < TOL


def test_local_upwind_convection_oracle(tiny_dz, md, tiny_partition):
    u_h = np.tile(U_CONST, 3 * tiny_dz.mesh.n_cells)
    for i in range(tiny_partition.n_domains):
        dom = LocalDomain.build(tiny_dz.mesh, tiny_partition, i)
        cells = tiny_partition.domain_cells(i)
        C = local_upwind_convection(tiny_dz, dom, u_h)
        assert _diff(C, oracles.local_convection_constant_u(md, cells, U_CONST)) < TOL


# --- structural invariants ------------------------------------------------

def test_mass_spd(small_dz):
    M = scalar_mass(small_dz)
    assert _diff(M, np.asarray(M.todense()).T) == 0.0
    assert eigsh(M, k=1, which="SA", return_eigenvectors=False)[0] > 0


def test_transport_diffusion_symmetric_positive(small_dz):
    ops = assemble_transport(small_dz, D=0.01, alpha=0.01, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0, u_h=None)
    asym = abs(ops.A - ops.A.T).max()
    assert asym < 1e-12
    lo = eigsh(ops.A, k=1, which="SA", return_eigenvectors=False)[0]
    assert lo > -1e-12 * abs(ops.A).max()


def test_flow_viscous_symmetric_positive(small_dz):
    cfg = ExperimentConfig(length=0.5, half_width=0.05, target_cells=400)
    ops = assemble_flow(small_dz, mu=1.0, rho=1.0, gamma_u=8.0,
                        inflow=inflow_profile(cfg))
    assert abs(ops.A - ops.A.T).max() < 1e-12
    lo = eigsh(ops.A, k=1, which="SA", return_eigenvectors=False)[0]
    assert lo > 0  # positive definite for the penalty in use


def test_convection_conserves_mass_against_test_constant(small_mesh, rng):
    # 1^T C c = boundary upwind bookkeeping only; with every boundary facet a
    # wall the convection operator has exactly zero column sums
    dz = closed_copy(small_mesh)
    u_h = rng.standard_normal(dz.dofs.n_velocity)
    C, F = assemble_convection(dz, u_h, c_in=0.0)
    ones = np.ones(dz.dofs.n_concentration)
    c = rng.standard_normal(dz.dofs.n_concentration)
    assert abs(ones @ (C @ c)) < 1e-10 * abs(C).max() * np.linalg.norm(c)
    assert np.all(F == 0.0)


def test_expand_to_vector_layout(rng):
    A = rng.standard_normal((6, 6))
    V = np.asarray(expand_to_vector(sp.csr_matrix(A)).todense())
    assert np.array_equal(V[0::2, 0::2], A)
    assert np.array_equal(V[1::2, 1::2], A)
    assert np.all(V[0::2, 1::2] == 0) and np.all(V[1::2, 0::2] == 0)


def test_dirichlet_rhs_consistency(tiny_dz):
    # A constant Dirichlet datum equal to a constant field leaves the field in
    # the operator's kernel direction: A @ 1 == F for pure weak-Dirichlet walls
    ops = assemble_transport(tiny_dz, D=0.3, alpha=0.0, gamma_c=8.0,
                             wall_bc="dbc", wall_data=2.5, c_in=2.5, u_h=None)
    ones = np.full(tiny_dz.dofs.n_concentration, 2.5)
    assert np.abs(ops.A @ ones - ops.F).max() < 1e-10


def test_discretization_masses_assembled_once(tiny_dz):
    assert tiny_dz.mass is tiny_dz.mass
    ops = assemble_transport(tiny_dz, D=0.3, alpha=0.0, gamma_c=8.0,
                             wall_bc="nbc", wall_data=0.0, c_in=1.0, u_h=None)
    assert ops.M is tiny_dz.mass
    assert tiny_dz.vector_mass is tiny_dz.vector_mass
    assert _diff(tiny_dz.mass, scalar_mass(tiny_dz).toarray()) == 0.0
    assert _diff(tiny_dz.vector_mass,
                 expand_to_vector(scalar_mass(tiny_dz)).toarray()) == 0.0
