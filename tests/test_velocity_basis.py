"""Velocity snapshot construction and spectral reduction."""

from dataclasses import replace

import numpy as np
import pytest

from channelms.assembly import (LocalDomain, assemble_local_velocity_forms,
                                local_interior_form)
from channelms.mesh import CoarsePartition
from channelms.spectral import NestedSpace
from channelms.velocity_basis import (build_velocity_space, expected_flow_dof,
                                      local_stokes, spectral_reduce_velocity,
                                      velocity_snapshots)

import oracles
from helpers import assert_rows_close, closed_copy
from test_spectral import check_spectral


def _stokes(dz, dom):
    """The domain's factored local Stokes system (mu 1, penalty 8)."""
    return local_stokes(dz, dom, 1.0, 8.0, local_interior_form(dz, dom, 1.0, 8.0))


def _forms(dz, dom):
    return assemble_local_velocity_forms(dz, dom, local_interior_form(dz, dom, 1.0, 8.0))


def _trace_errors(dz, dom, snap, gvals_l, direction):
    """(gamma_E trace error vs the hat datum, wall trace magnitude)."""
    mesh, fg = dz.mesh, dz.facet_geom
    t = dz.quad.facet_points
    pos = {c: k for k, c in enumerate(dom.cells)}
    U = snap.reshape(len(dom.cells), 3, 2)
    worst_e = 0.0
    sides, _ = dom.inside_side(mesh, dom.gamma_e)
    for j, f in enumerate(dom.gamma_e):
        c = mesh.facet_cells[f, sides[j]]
        got = fg.trace_matrix(f, sides[j], t) @ U[pos[c]]  # (nq, 2)
        want = np.zeros_like(got)
        want[:, direction] = gvals_l[j]
        worst_e = max(worst_e, np.abs(got - want).max())
    worst_w = 0.0
    wsides, _ = dom.inside_side(mesh, dom.gamma_w)
    for j, f in enumerate(dom.gamma_w):
        c = mesh.facet_cells[f, wsides[j]]
        got = fg.trace_matrix(f, wsides[j], t) @ U[pos[c]]
        worst_w = max(worst_w, np.abs(got).max())
    return worst_e, worst_w


@pytest.fixture(scope="module")
def dom(small_dz, small_partition):
    return LocalDomain.build(small_dz.mesh, small_partition, 1)


@pytest.fixture(scope="module")
def lu(small_dz, dom):
    return _stokes(small_dz, dom)


@pytest.fixture(scope="module")
def snaps0(small_dz, dom, lu):
    return velocity_snapshots(small_dz, dom, 0, 1.0, 8.0, lu)


def test_snapshot_count_per_direction(small_dz, dom, lu, snaps0):
    nodes = np.unique(small_dz.mesh.facets[dom.gamma_e])
    assert np.array_equal(oracles.hat_traces(small_dz, dom.gamma_e)[0], nodes)
    assert len(snaps0) == len(nodes)
    pooled = velocity_snapshots(small_dz, dom, None, 1.0, 8.0, lu)
    assert len(pooled) == 2 * len(nodes)


def test_snapshot_traces_match_hat_data(small_dz, dom, snaps0):
    _, gvals = oracles.hat_traces(small_dz, dom.gamma_e)
    for l in range(len(snaps0)):
        e, w = _trace_errors(small_dz, dom, snaps0[l], gvals[l], 0)
        assert e < 1e-6, (l, e)
        assert w < 1e-6, (l, w)


def test_snapshot_discrete_divergence_is_compatible_constant(small_dz, dom,
                                                            snaps0):
    # the continuity rows force a constant weak divergence balancing the net
    # hat inflow; verified with an independently integrated coupling matrix
    mesh, fg, cg = small_dz.mesh, small_dz.facet_geom, small_dz.cell_geom
    md = oracles.MeshData(mesh)
    Bo = oracles.local_stokes_b(md, dom.cells)
    w = small_dz.quad.facet_weights
    _, gvals = oracles.hat_traces(small_dz, dom.gamma_e)
    sides, signs = dom.inside_side(mesh, dom.gamma_e)
    in_cells = mesh.facet_cells[dom.gamma_e, sides]
    pos = {c: k for k, c in enumerate(dom.cells)}
    areas = cg.areas[dom.cells]
    volume = areas.sum()
    for l in range(0, len(snaps0), 5):
        gint = gvals[l] @ w  # per-facet mean of the hat
        per_facet = (fg.lengths[dom.gamma_e]
                     * signs * fg.normals[dom.gamma_e, 0] * gint)
        expected = np.zeros(len(dom.cells))
        for f, c, val in zip(dom.gamma_e, in_cells, per_facet):
            expected[pos[c]] += val
        flux = per_facet.sum()
        expected -= flux / volume * areas
        got = Bo @ snaps0[l]
        # the strong data penalty (~1e11) limits the attainable residual of
        # the factored saddle system to round-off times its condition number
        assert np.abs(got[1:] - expected[1:]).max() < 2e-5


def test_spectral_checks_on_real_domain(small_dz, dom, snaps0):
    A, S = _forms(small_dz, dom)
    check_spectral(snaps0, A.toarray(), S.toarray(), 5)


def test_build_velocity_space_layout(small_dz, small_partition):
    vs = build_velocity_space(small_dz, small_partition, "type2", 3, 1.0, 8.0)
    assert isinstance(vs, NestedSpace)
    assert vs.R.shape[0] == 2 * 3 * small_partition.n_domains
    assert vs.reported_dof(3) == expected_flow_dof("type2",
                                                   small_partition.n_domains, 3)
    # every projection row is supported inside its own domain only
    R = vs.R
    row = 0
    for b in vs.blocks:
        allowed = set(b.dofs.tolist())
        for _ in range(len(b.vectors)):
            cols = R.indices[R.indptr[row]:R.indptr[row + 1]]
            assert set(cols.tolist()) <= allowed
            row += 1
    assert row == vs.R.shape[0]
    doms = {d for d, _, _, _ in vs.eigen_rows}
    assert doms == set(range(small_partition.n_domains))


def test_build_velocity_space_thread_determinism(small_dz, small_partition):
    v1 = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0)
    v2 = build_velocity_space(small_dz, small_partition, "type1", 2, 1.0, 8.0,
                              threads=3)
    assert np.array_equal(v1.R.toarray(), v2.R.toarray())


def test_expected_flow_dof_formulas():
    assert expected_flow_dof("type1", 10, 10) == 110
    assert expected_flow_dof("type2", 10, 5) == 110
    assert expected_flow_dof("type2", 10, 20) == 410
    assert expected_flow_dof("type2", 20, 20) == 820


def test_wall_only_domain_rejected(small_mesh):
    # a domain whose boundary is all wall cannot host snapshots
    dz = closed_copy(small_mesh)
    part = CoarsePartition(1, np.zeros(small_mesh.n_cells, dtype=np.int64),
                           "structured")
    with pytest.raises(ValueError, match="no non-wall boundary"):
        _stokes(dz, LocalDomain.build(dz.mesh, part, 0))


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_factor_once_matches_per_direction_factorization(small_dz,
                                                         small_partition, kind):
    # the pinned local systems are near-singular, so sharing one LU across
    # directions must reproduce the per-direction snapshots bit for bit
    directions = [None] if kind == "type1" else [0, 1]

    def own(dom, r):  # a fresh factorization for one direction
        return velocity_snapshots(small_dz, dom, r, 1.0, 8.0,
                                  _stokes(small_dz, dom))

    dom = LocalDomain.build(small_dz.mesh, small_partition, 1)
    lu = _stokes(small_dz, dom)
    for r in directions:
        shared = velocity_snapshots(small_dz, dom, r, 1.0, 8.0, lu)
        assert np.array_equal(own(dom, r), shared)
    doms = [LocalDomain.build(small_dz.mesh, small_partition, i)
            for i in range(small_partition.n_domains)]
    bases = [spectral_reduce_velocity(
                 d, -1 if r is None else r, own(d, r),
                 _forms(small_dz, d), 3)
             for d in doms for r in directions]
    ref = NestedSpace.stack("velocity", bases, small_dz.dofs.n_velocity,
                            small_partition.n_domains)
    vs = build_velocity_space(small_dz, small_partition, kind, 3, 1.0, 8.0)
    assert np.array_equal(vs.R.toarray(), ref.R.toarray())


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_truncation_equals_direct_build(small_dz, small_partition, kind):
    # the rows(M) of the largest build are a direct build at M
    full = build_velocity_space(small_dz, small_partition, kind, 5, 1.0, 8.0)
    assert np.array_equal(full.rows(5), np.arange(full.R.shape[0]))
    for M in (1, 3):
        direct = build_velocity_space(small_dz, small_partition, kind, M,
                                      1.0, 8.0)
        assert full.reported_dof(M) == direct.reported_dof(M)
        assert full.eigen_rows == direct.eigen_rows
        assert_rows_close(full.R[full.rows(M)], direct.R)
    with pytest.raises(ValueError, match="cannot truncate to M=6"):
        full.rows(6)


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_rows_select_the_truncation(small_dz, small_partition, kind):
    # rows(M) picks exactly the first M modes of every block, in block order
    full = build_velocity_space(small_dz, small_partition, kind, 4, 1.0, 8.0)
    for M in (1, 3, 4):
        cut = [replace(b, eigenvalues=b.eigenvalues[:M], vectors=b.vectors[:M])
               for b in full.blocks]
        ref = NestedSpace.stack("velocity", cut, full.R.shape[1],
                                full.extra_dof)
        assert np.array_equal(full.R[full.rows(M)].toarray(), ref.R.toarray())
        assert full.reported_dof(M) == ref.reported_dof(M)
    with pytest.raises(ValueError, match="cannot truncate to M=5"):
        full.rows(5)


def test_rank_shortfall_names_domain_direction_rank_and_m(small_dz,
                                                          small_partition):
    with pytest.raises(ValueError, match=r"domain 0 \(direction 0\), M=500: "
                                         r"requested 500 modes .* rank \d+"):
        build_velocity_space(small_dz, small_partition, "type2", 500, 1.0, 8.0)
