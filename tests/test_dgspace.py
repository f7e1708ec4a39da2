"""Quadrature exactness, reference basis values, cell/facet geometry."""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from channelms.assembly import _facet_data, _traces
from channelms.dgspace import (CellGeometry, DofMaps, FacetGeometry, p1_values,
                               quadrature)
from channelms.mesh import ChannelParams, generate_channel


def _exact_tri(a, b):
    """int over the reference triangle of x^a y^b."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 5))
def test_cell_rule_exact_for_monomials(order, a, b):
    if a + b > order:
        return
    q = quadrature(order)
    val = np.sum(q.cell_weights * q.cell_points[:, 0] ** a * q.cell_points[:, 1] ** b)
    assert np.isclose(val, _exact_tri(a, b), atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5))
def test_facet_rule_exact_for_monomials(order, a):
    if a > order:
        return
    q = quadrature(order)
    val = np.sum(q.facet_weights * q.facet_points ** a)
    assert np.isclose(val, 1.0 / (a + 1), atol=1e-14)


def test_p1_partition_of_unity(rng):
    pts = rng.random((20, 2)) * 0.5
    vals = p1_values(pts)
    assert np.allclose(vals.sum(axis=1), 1.0)
    # nodal property at the reference vertices
    assert np.allclose(p1_values(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
                       np.eye(3))


def test_dof_maps():
    dofs = DofMaps(7)
    assert dofs.n_velocity == 42
    assert dofs.n_pressure == 7
    assert dofs.n_concentration == 21


def test_cell_geometry_matches_mesh(small_mesh):
    cg = CellGeometry.from_mesh(small_mesh)
    assert np.allclose(cg.areas, small_mesh.cell_areas())
    # gradients reproduce the nodal interpolation property: grad of the affine
    # interpolant of nodal values v equals sum v_k grad(phi_k)
    p = small_mesh.nodes[small_mesh.cells]
    for c in range(0, small_mesh.n_cells, 37):
        V = np.column_stack([np.ones(3), p[c, :, 0], p[c, :, 1]])
        coeffs = np.linalg.solve(V, np.eye(3))
        assert np.allclose(cg.grads[c], coeffs[1:, :].T, atol=1e-12)


def test_facet_traces_align_across_sides(small_dz):
    # the two cell-side traces of a continuous nodal hat agree pointwise, in
    # the parameter along which the facet data is evaluated
    mesh, fg, quad = small_dz.mesh, small_dz.facet_geom, small_dz.quad
    t = quad.facet_points
    fids = mesh.interior_facets()[::23]
    xy = _facet_data(small_dz, fids, lambda x: x)
    for side in range(2):
        T = _traces(fg, quad, fids, side)
        for j, f in enumerate(fids):
            a, b = mesh.facets[f]
            c = mesh.facet_cells[f, side]
            la = int(np.flatnonzero(mesh.cells[c] == a)[0])
            lb = int(np.flatnonzero(mesh.cells[c] == b)[0])
            assert np.allclose(T[j, :, la], 1.0 - t)
            assert np.allclose(T[j, :, lb], t)
            assert np.allclose(xy[j], np.outer(1.0 - t, mesh.nodes[a])
                               + np.outer(t, mesh.nodes[b]))


@pytest.mark.parametrize("flip_seed", [None, 3])  # structured, unstructured
def test_local_nodes_match_the_per_facet_loop(flip_seed):
    mesh = generate_channel(ChannelParams(length=0.5, half_width=0.05,
                                          target_cells=400, flip_seed=flip_seed))
    local = FacetGeometry.from_mesh(mesh).local_nodes
    assert local.dtype == np.int64
    assert np.array_equal(local, oracles.local_nodes(mesh))


def test_facet_geometry_lengths_normals(small_mesh):
    fg = FacetGeometry.from_mesh(small_mesh)
    assert np.allclose(fg.lengths, small_mesh.facet_lengths())
    assert np.allclose(fg.normals, small_mesh.facet_normals())
    boundary = small_mesh.boundary_facets()
    assert np.all(fg.local_nodes[boundary, 1] == -1)
    interior = small_mesh.interior_facets()
    assert np.all(fg.local_nodes[interior] >= 0)
