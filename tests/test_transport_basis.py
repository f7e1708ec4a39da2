"""Concentration snapshot families, interior bubbles, spectral reduction."""

from dataclasses import replace

import numpy as np
import pytest

from channelms.assembly import (LocalDomain,
                                assemble_local_concentration_forms)
from channelms.spectral import NestedSpace
from channelms.transport_basis import (build_concentration_space,
                                       concentration_snapshots,
                                       expected_transport_dof, interior_basis,
                                       local_operators)
from channelms.velocity_basis import build_velocity_space

import oracles
from helpers import assert_rows_close
from oracles import _pair01, _single01
from test_spectral import check_spectral

D, ALPHA, GAMMA = 0.05, 0.3, 8.0


@pytest.fixture(scope="module")
def md(small_mesh):
    return oracles.MeshData(small_mesh)


def _dom(small_dz, small_partition, i):
    return LocalDomain.build(small_dz.mesh, small_partition, i)


def _ops(dz, dom, variant="elliptic", diffusivity=D, u_ms=None, tau=None):
    """The domain's `local_operators`: interior form, mass, transient part."""
    return local_operators(dz, dom, variant, diffusivity, GAMMA, u_ms, tau)


def _hat_endpoints(dz, dom, fids):
    """Hat data per (node, facet) as endpoint values, from the facet node ids."""
    mesh = dz.mesh
    pairs = mesh.facets[fids]
    nodes = np.unique(pairs)
    pos = {n: k for k, n in enumerate(nodes)}
    g = np.zeros((len(nodes), len(fids), 2))
    for j, (a, b) in enumerate(pairs):
        g[pos[a], j, 0] = 1.0
        g[pos[b], j, 1] = 1.0
    return nodes, g


def _oracle_nitsche_rhs(md, dom, fids, sides, coeff, gamma, g):
    """Weak-Dirichlet load from exact facet integrals, with the normal out of
    each facet's side; restricted to dom."""
    n = 3 * md.mesh.n_cells
    F = np.zeros(n)
    for j, (f, s) in enumerate(zip(fids, sides)):
        c = md.mesh.facet_cells[f, s]
        sg = 1.0 if s == 0 else -1.0
        g0, g1 = g[j]
        for i in range(3):
            tr = md.trace(f, c, i)
            F[3 * c + i] += gamma * coeff * _pair01(g0, g1, *tr)
            F[3 * c + i] -= coeff * md.dn(f, c, i, sg) * md.length[f] * \
                _single01(g0, g1)
    sd = (3 * dom.cells[:, None] + np.arange(3)[None, :]).reshape(-1)
    return F[sd]


def _oracle_facet_rhs(md, dom, fids, sides, coeff, g):
    n = 3 * md.mesh.n_cells
    F = np.zeros(n)
    for j, (f, s) in enumerate(zip(fids, sides)):
        c = md.mesh.facet_cells[f, s]
        for i in range(3):
            tr = md.trace(f, c, i)
            F[3 * c + i] += coeff * md.length[f] * _pair01(g[j, 0], g[j, 1], *tr)
    sd = (3 * dom.cells[:, None] + np.arange(3)[None, :]).reshape(-1)
    return F[sd]


def test_argument_validation(small_dz, small_partition):
    dom = _dom(small_dz, small_partition, 0)
    ops = _ops(small_dz, dom)
    with pytest.raises(ValueError, match="family"):
        concentration_snapshots(small_dz, dom, "corner", "rbc",
                                "elliptic", D, ALPHA, GAMMA, *ops)
    with pytest.raises(ValueError, match="boundary condition"):
        concentration_snapshots(small_dz, dom, "wall", "abc",
                                "elliptic", D, ALPHA, GAMMA, *ops)
    with pytest.raises(ValueError, match="variant"):
        concentration_snapshots(small_dz, dom, "wall", "rbc",
                                "steady", D, ALPHA, GAMMA, *ops)
    with pytest.raises(ValueError, match="velocity"):
        concentration_snapshots(small_dz, dom, "wall", "rbc",
                                "timevelocity", D, ALPHA, GAMMA, *ops)
    with pytest.raises(ValueError, match="velocity"):
        interior_basis(small_dz, dom, "timevelocity", D, GAMMA, *ops)
    with pytest.raises(ValueError, match="velocity"):
        _ops(small_dz, dom, "timevelocity")


def test_snapshot_counts_by_family(small_dz, small_partition):
    dom = _dom(small_dz, small_partition, 1)
    for family, fids in (("interface", dom.gamma_e), ("wall", dom.gamma_w),
                         ("pooled", dom.boundary())):
        ss = concentration_snapshots(small_dz, dom, family, "rbc", "elliptic",
                                     D, ALPHA, GAMMA, *_ops(small_dz, dom))
        assert len(ss) == len(np.unique(small_dz.mesh.facets[fids]))
        assert ss.shape[1] == 3 * len(dom.cells)


@pytest.mark.parametrize("family,bc", [("interface", "dbc"), ("interface", "rbc"),
                                       ("interface", "nbc"), ("wall", "dbc"),
                                       ("wall", "rbc"), ("pooled", "rbc")])
def test_elliptic_snapshots_solve_local_problem(small_dz, small_partition, md,
                                                family, bc):
    # every snapshot satisfies an independently assembled dense local system
    dom = _dom(small_dz, small_partition, 1)
    ss = concentration_snapshots(small_dz, dom, family, bc, "elliptic",
                                 D, ALPHA, GAMMA, *_ops(small_dz, dom))
    ge, gw = dom.gamma_e, dom.gamma_w
    if family == "interface":
        data, nitsche = ge, True
        dirichlet = np.concatenate([ge, gw]) if bc == "dbc" else ge
        robin = gw if bc == "rbc" else np.array([], dtype=int)
    elif family == "wall":
        data, nitsche = gw, bc == "dbc"
        dirichlet = gw if bc == "dbc" else np.array([], dtype=int)
        robin = gw if bc == "rbc" else np.array([], dtype=int)
    else:
        data, nitsche = dom.boundary(), True
        dirichlet, robin = dom.boundary(), np.array([], dtype=int)
    A = oracles.local_diffusion_with_bc(md, dom.cells, D, GAMMA, dirichlet,
                                        robin, ALPHA)
    nodes, g = _hat_endpoints(small_dz, dom, data)
    assert np.array_equal(nodes, oracles.hat_traces(small_dz, data)[0])
    sides = dom.inside_side(small_dz.mesh, data)
    scale = np.abs(A).max()
    for l in range(0, len(nodes), 4):
        if nitsche:
            F = _oracle_nitsche_rhs(md, dom, data, sides, D, GAMMA, g[l])
        else:
            coeff = -1.0 if bc == "nbc" else ALPHA
            F = _oracle_facet_rhs(md, dom, data, sides, coeff, g[l])
        res = A @ ss[l] - F
        assert np.abs(res).max() < 1e-8 * scale, (l, np.abs(res).max())


def test_neumann_wall_family_energy_identity(small_dz, small_partition, md):
    # the singular pure-flux operator is closed with a zero-mean constraint:
    # each snapshot has zero mass-weighted mean and satisfies c.(A c) = c.F
    dom = _dom(small_dz, small_partition, 1)
    ss = concentration_snapshots(small_dz, dom, "wall", "nbc", "elliptic",
                                 D, ALPHA, GAMMA, *_ops(small_dz, dom))
    A = oracles.local_diffusion_with_bc(md, dom.cells, D, GAMMA,
                                        np.array([], dtype=int),
                                        np.array([], dtype=int), 0.0)
    sd = (3 * dom.cells[:, None] + np.arange(3)[None, :]).reshape(-1)
    M = oracles.scalar_mass(md)[np.ix_(sd, sd)]
    nodes, g = _hat_endpoints(small_dz, dom, dom.gamma_w)
    sides = dom.inside_side(small_dz.mesh, dom.gamma_w)
    for l in range(0, len(nodes), 4):
        c = ss[l]
        assert abs(np.ones(len(c)) @ (M @ c)) < 1e-10
        F = _oracle_facet_rhs(md, dom, dom.gamma_w, sides, -1.0, g[l])
        assert np.isclose(c @ (A @ c), c @ F, rtol=1e-8, atol=1e-12)


def test_robin_zero_rate_kills_wall_snapshots(small_dz, small_partition):
    u0 = np.zeros(small_dz.dofs.n_velocity)
    dom = _dom(small_dz, small_partition, 1)
    ss = concentration_snapshots(small_dz, dom, "wall", "rbc", "timevelocity",
                                 D, 0.0, GAMMA,
                                 *_ops(small_dz, dom, "timevelocity", u_ms=u0, tau=0.1),
                                 u_ms=u0, tau=0.1)
    assert np.abs(ss).max() == 0.0


def test_bubble_matches_dense_solve(small_dz, small_partition, md):
    dom = _dom(small_dz, small_partition, 1)
    b = interior_basis(small_dz, dom, "elliptic", D, GAMMA, *_ops(small_dz, dom))
    bd = dom.boundary()
    A = oracles.local_diffusion_with_bc(md, dom.cells, D, GAMMA, bd,
                                        np.array([], dtype=int), 0.0)
    sd = (3 * dom.cells[:, None] + np.arange(3)[None, :]).reshape(-1)
    M = oracles.scalar_mass(md)[np.ix_(sd, sd)]
    c = np.linalg.solve(A, M @ np.ones(len(sd)))
    c /= np.sqrt(c @ (M @ c))
    assert np.abs(b - c).max() < 1e-8
    assert np.isclose(b @ (M @ b), 1.0)


def test_bubble_invariances(small_dz, small_partition):
    # the normalized elliptic bubble does not depend on the diffusivity, and
    # the transient bubble converges to it as the time step grows
    dom = _dom(small_dz, small_partition, 2)
    b1 = interior_basis(small_dz, dom, "elliptic", 0.05, GAMMA,
                        *_ops(small_dz, dom, diffusivity=0.05))
    b2 = interior_basis(small_dz, dom, "elliptic", 0.7, GAMMA,
                        *_ops(small_dz, dom, diffusivity=0.7))
    assert np.abs(b1 - b2).max() < 1e-10
    u0 = np.zeros(small_dz.dofs.n_velocity)
    bt = interior_basis(small_dz, dom, "timevelocity", 0.05, GAMMA,
                        *_ops(small_dz, dom, "timevelocity", 0.05, u0, 1e8),
                        u_ms=u0, tau=1e8)
    assert np.abs(bt - b1).max() < 1e-6


def test_spectral_checks_on_real_domain(small_dz, small_partition):
    dom = _dom(small_dz, small_partition, 1)
    ops = _ops(small_dz, dom)
    ss = concentration_snapshots(small_dz, dom, "interface", "rbc", "elliptic",
                                 D, ALPHA, GAMMA, *ops)
    A, S = assemble_local_concentration_forms(small_dz, dom, ops[0])
    check_spectral(ss, A.toarray(), S.toarray(), 4)


def test_build_concentration_space_layout(small_dz, small_partition):
    cs = build_concentration_space(small_dz, small_partition, "type2", 2,
                                   "rbc", "elliptic", D, ALPHA, GAMMA)
    N = small_partition.n_domains
    assert cs.R.shape[0] == N * (2 * 2 + 1)
    assert cs.reported_dof(2) == expected_transport_dof("type2", N, 2)
    fams = {fam for _, fam, _, _ in cs.eigen_rows}
    assert fams == {"interface", "wall"}
    # rows are supported in their own domain; the bubble row is last per domain
    assert [b.label for b in cs.blocks] == ["interface", "wall", "bubble"] * N
    row = 0
    for b in cs.blocks:
        allowed = set(b.dofs.tolist())
        for _ in range(len(b.vectors)):
            cols = cs.R.indices[cs.R.indptr[row]:cs.R.indptr[row + 1]]
            assert set(cols.tolist()) <= allowed
            row += 1
    assert row == cs.R.shape[0]


def test_thread_determinism(small_dz, small_partition):
    kw = dict(bc_kind="rbc", variant="elliptic", D=D, alpha=ALPHA, gamma_c=GAMMA)
    c1 = build_concentration_space(small_dz, small_partition, "type1", 2, **kw)
    c2 = build_concentration_space(small_dz, small_partition, "type1", 2,
                                   threads=3, **kw)
    assert np.array_equal(c1.R.toarray(), c2.R.toarray())


def test_expected_transport_dof_formulas():
    assert expected_transport_dof("type2", 10, 1) == 30
    assert expected_transport_dof("type1", 10, 2) == 30
    assert expected_transport_dof("type2", 20, 10) == 420


def _uniform_velocity(dz):
    u = np.zeros(dz.dofs.n_velocity)
    u[0::2] = 1.0  # unit x velocity on every scalar dof
    return u


@pytest.mark.parametrize("kind", ["type1", "type2"])
@pytest.mark.parametrize("variant", ["elliptic", "timevelocity"])
def test_truncation_equals_direct_build(small_dz, small_partition, kind,
                                        variant):
    kw = dict(bc_kind="rbc", variant=variant, D=D, alpha=ALPHA, gamma_c=GAMMA)
    if variant == "timevelocity":
        kw.update(u_ms=_uniform_velocity(small_dz), tau=0.05)
    # the rows(M) of the largest build are a direct build at M
    full = build_concentration_space(small_dz, small_partition, kind, 3, **kw)
    assert np.array_equal(full.rows(3), np.arange(full.R.shape[0]))
    for M in (1, 2):
        direct = build_concentration_space(small_dz, small_partition, kind, M,
                                           **kw)
        assert full.reported_dof(M) == direct.reported_dof(M)
        assert full.eigen_rows == direct.eigen_rows
        assert_rows_close(full.R[full.rows(M)], direct.R)
    with pytest.raises(ValueError, match="cannot truncate to M=4"):
        full.rows(4)


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_rows_select_the_truncation(small_dz, small_partition, kind):
    # rows(M) picks the first M modes of every family block and keeps every
    # bubble row whole, in block order
    full = build_concentration_space(small_dz, small_partition, kind, 3,
                                     "rbc", "elliptic", D, ALPHA, GAMMA)
    for M in (1, 2, 3):
        cut = [replace(b, eigenvalues=b.eigenvalues[:M], vectors=b.vectors[:M])
               if len(b.eigenvalues) else b for b in full.blocks]
        ref = NestedSpace.stack("concentration", cut, full.R.shape[1])
        assert np.array_equal(full.R[full.rows(M)].toarray(), ref.R.toarray())
        assert full.reported_dof(M) == ref.reported_dof(M)
    with pytest.raises(ValueError, match="cannot truncate to M=4"):
        full.rows(4)


def test_empty_wall_family_counts_its_rows(small_dz, small_partition):
    # a domain without wall facets has no wall modes: the space has fewer
    # rows than the closed formula, and reports what it holds
    full = build_concentration_space(small_dz, small_partition, "type2", 2,
                                     "rbc", "elliptic", D, ALPHA, GAMMA)
    blocks = [replace(b, eigenvalues=b.eigenvalues[:0], vectors=b.vectors[:0])
              if (b.domain, b.label) == (0, "wall") else b for b in full.blocks]
    cs = NestedSpace.stack("concentration", blocks, full.R.shape[1])
    N = small_partition.n_domains
    assert cs.reported_dof(2) == cs.R.shape[0] == expected_transport_dof("type2", N, 2) - 2
    for M in (1, 2):
        cut = [replace(b, vectors=b.vectors[:M]) if len(b.eigenvalues) else b
               for b in blocks]
        assert np.array_equal(cs.R[cs.rows(M)].toarray(),
                              NestedSpace.stack("concentration", cut,
                                                cs.R.shape[1]).R.toarray())


def test_rank_shortfall_names_domain_family_rank_and_m(small_dz,
                                                       small_partition):
    with pytest.raises(ValueError, match=r"domain 0 \(interface family\), "
                                         r"M=500: requested 500 modes .* "
                                         r"rank \d+"):
        build_concentration_space(small_dz, small_partition, "type2", 500,
                                  "rbc", "elliptic", D, ALPHA, GAMMA)


def test_one_local_domain_per_domain_job(small_dz, small_partition,
                                         monkeypatch):
    # each builder's job builds its domain's LocalDomain once and passes it
    # down to the snapshots, the forms, the spectral problems and the bubble
    calls = []
    build = LocalDomain.build.__func__

    def counted(cls, mesh, partition, i):
        calls.append(i)
        return build(cls, mesh, partition, i)

    monkeypatch.setattr(LocalDomain, "build", classmethod(counted))
    N = small_partition.n_domains
    for kind in ("type1", "type2"):
        calls.clear()
        build_velocity_space(small_dz, small_partition, kind, 2, 1.0, 8.0)
        assert sorted(calls) == list(range(N)), kind
    calls.clear()
    build_concentration_space(small_dz, small_partition, "type2", 2, "rbc",
                              "timevelocity", D, ALPHA, GAMMA,
                              u_ms=_uniform_velocity(small_dz), tau=0.05)
    assert sorted(calls) == list(range(N))
