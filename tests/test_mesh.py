"""Mesh generation, boundary classification, coarse partitioning, file IO."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from channelms import cli
from channelms.mesh import (ChannelParams, FacetMarker, generate_channel,
                            partition_coarse, read_mesh, write_mesh)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

channel_params = st.builds(
    ChannelParams,
    length=st.floats(1.0, 4.0),
    half_width=st.floats(0.02, 0.1),
    profile=st.sampled_from(["straight", "sinusoidal"]),
    amplitude=st.floats(0.0, 0.015),
    wavelength=st.floats(0.3, 1.0),
    target_cells=st.integers(100, 1500),
)


def _valid(params):
    try:
        params.validate()
        return True
    except ValueError:
        return False


@settings(max_examples=25, deadline=None)
@given(channel_params)
def test_generated_mesh_invariants(params):
    if not _valid(params):
        with pytest.raises(ValueError):
            generate_channel(params)
        return
    try:
        mesh = generate_channel(params)
    except ValueError as exc:
        # coarse sinusoidal requests are rejected rather than silently aliased
        assert "too coarse" in str(exc)
        return
    mesh.validate()
    # marker partition: interior facets have two cells, boundary facets one
    interior = mesh.facet_marker == FacetMarker.INTERIOR
    assert np.array_equal(interior, mesh.facet_cells[:, 1] >= 0)
    assert set(np.unique(mesh.facet_marker)) <= {0, 1, 2, 3}
    # area identity: triangles tile the parameterized channel exactly
    # (piecewise-linear walls, so compare against the trapezoid of hw(x_i))
    xs = np.unique(mesh.nodes[:, 0])
    expected = np.trapezoid(2.0 * params.halfwidth(xs), xs)
    assert np.isclose(mesh.cell_areas().sum(), expected, rtol=1e-10)


def test_boundary_classification(small_mesh):
    mids = 0.5 * (small_mesh.nodes[small_mesh.facets[:, 0]]
                  + small_mesh.nodes[small_mesh.facets[:, 1]])
    L = small_mesh.nodes[:, 0].max()
    for f in small_mesh.boundary_facets():
        m = FacetMarker(small_mesh.facet_marker[f])
        x = mids[f, 0]
        if np.isclose(x, 0.0):
            assert m == FacetMarker.INFLOW  # inlet disk covers the full inlet here
        elif np.isclose(x, L):
            assert m == FacetMarker.OUTFLOW
        else:
            assert m == FacetMarker.WALL


def test_inlet_disk_restricts_inflow():
    params = ChannelParams(length=1.0, half_width=0.05, target_cells=800,
                           inlet_center=0.05, inlet_radius=0.02)
    mesh = generate_channel(params)
    mids = 0.5 * (mesh.nodes[mesh.facets[:, 0]] + mesh.nodes[mesh.facets[:, 1]])
    inflow = np.flatnonzero(mesh.facet_marker == FacetMarker.INFLOW)
    assert len(inflow) > 0
    assert np.all(np.abs(mids[inflow, 1] - 0.05) <= 0.02 + 1e-12)
    left_walls = np.flatnonzero((mesh.facet_marker == FacetMarker.WALL)
                                & np.isclose(mids[:, 0], 0.0))
    assert len(left_walls) > 0  # the rest of the inlet face is a wall


def test_mesh_resolution_near_target(small_mesh):
    params = ChannelParams(length=0.5, half_width=0.05, target_cells=400)
    assert abs(small_mesh.n_cells - 400) <= 0.25 * 400
    h_target = np.sqrt(2 * 0.5 * 0.1 / 400)
    assert abs(small_mesh.h - h_target) <= 0.2 * h_target


def test_facet_normals_orientation(small_mesh):
    normals = small_mesh.facet_normals()
    mids = 0.5 * (small_mesh.nodes[small_mesh.facets[:, 0]]
                  + small_mesh.nodes[small_mesh.facets[:, 1]])
    centroids = small_mesh.cell_centroids()
    plus = small_mesh.facet_cells[:, 0]
    d = np.einsum("ij,ij->i", normals, mids - centroids[plus])
    assert np.all(d > 0)  # always points away from the plus cell
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


def test_structured_partition_slabs(small_mesh):
    part = partition_coarse(small_mesh, 5, mode="structured")
    cx = small_mesh.cell_centroids()[:, 0]
    L = small_mesh.nodes[:, 0].max()
    expected = np.minimum((cx / L * 5).astype(int), 4)
    assert np.array_equal(part.cell_to_domain, expected)


def test_single_domain_gamma_split(small_mesh):
    part = partition_coarse(small_mesh, 1, mode="structured")
    ge, gw = part.boundary_facets(small_mesh, 0)
    marker = small_mesh.facet_marker
    assert set(ge) == set(np.flatnonzero(np.isin(marker, (FacetMarker.INFLOW,
                                                          FacetMarker.OUTFLOW))))
    assert set(gw) == set(np.flatnonzero(marker == FacetMarker.WALL))


def test_gamma_split_cross_check(small_mesh):
    part = partition_coarse(small_mesh, 4, mode="structured")
    d = part.cell_to_domain
    for i in range(4):
        ge, gw = part.boundary_facets(small_mesh, i)
        for f in ge:
            cp, cm = small_mesh.facet_cells[f]
            if cm >= 0:
                assert (d[cp] == i) != (d[cm] == i)  # inter-domain facet
            else:
                assert small_mesh.facet_marker[f] in (FacetMarker.INFLOW,
                                                      FacetMarker.OUTFLOW)
        for f in gw:
            assert small_mesh.facet_marker[f] == FacetMarker.WALL
            assert d[small_mesh.facet_cells[f, 0]] == i


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000), st.integers(3, 8))
def test_unstructured_partition_deterministic_and_connected(seed, n_domains):
    params = ChannelParams(length=1.0, half_width=0.05, target_cells=500)
    mesh = generate_channel(params)
    p1 = partition_coarse(mesh, n_domains, mode="unstructured", seed=seed)
    p2 = partition_coarse(mesh, n_domains, mode="unstructured", seed=seed)
    assert np.array_equal(p1.cell_to_domain, p2.cell_to_domain)
    # every domain nonempty and facet-connected
    adj = [[] for _ in range(mesh.n_cells)]
    for cp, cm in mesh.facet_cells:
        if cm >= 0:
            adj[cp].append(cm)
            adj[cm].append(cp)
    for i in range(n_domains):
        cells = set(p1.domain_cells(i).tolist())
        assert cells
        start = next(iter(cells))
        seen, stack = {start}, [start]
        while stack:
            c = stack.pop()
            for nb in adj[c]:
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert seen == cells


def test_partition_covers_all_cells(small_mesh):
    part = partition_coarse(small_mesh, 4, mode="unstructured", seed=1)
    counts = np.bincount(part.cell_to_domain, minlength=4)
    assert counts.sum() == small_mesh.n_cells
    assert np.all(counts > 0)


def test_mesh_io_round_trip(small_mesh, tmp_path):
    part = partition_coarse(small_mesh, 4, mode="structured")
    path = tmp_path / "channel.msh"
    write_mesh(path, small_mesh, part)
    mesh2, part2 = read_mesh(path)
    assert np.array_equal(mesh2.nodes, small_mesh.nodes)
    assert np.array_equal(mesh2.cells, small_mesh.cells)
    assert np.array_equal(mesh2.facets, small_mesh.facets)
    assert np.array_equal(mesh2.facet_marker, small_mesh.facet_marker)
    assert mesh2.h == small_mesh.h
    assert np.array_equal(part2.cell_to_domain, part.cell_to_domain)


def test_thin_domain_guard():
    with pytest.raises(ValueError, match="thin-domain"):
        ChannelParams(length=0.3, half_width=0.1, target_h=0.05).validate()


def test_pinch_guard():
    with pytest.raises(ValueError, match="amplitude"):
        ChannelParams(length=5.0, half_width=0.1, profile="sinusoidal",
                      amplitude=0.12, target_h=0.05).validate()


def _topology_cases():
    """Every preset, and every benchmark workload at seeds 0-9, as one case per
    distinct (channel, n_domains, partition mode, seed): the seed reaches the
    topology only through an unstructured partition."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclasses
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    configs = [(name, cli.load_preset(name)) for name in cli.preset_names()]
    configs += [(f"{w.name}-seed{seed}",
                 replace(cli.load_preset(w.preset), **w.overrides, seed=seed))
                for w in workloads.WORKLOADS.values() for seed in range(10)]
    cases = {}
    for name, cfg in configs:
        seed = cfg.seed if cfg.partition_mode == "unstructured" else 0
        key = (cfg.channel_params(), cfg.n_domains, cfg.partition_mode, seed)
        cases.setdefault(key, name)
    return [pytest.param(*key, id=name) for key, name in cases.items()]


def _assert_topology_matches_loops(params, n_domains, mode, seed):
    """The mesh and partition equal the per-element loop oracles bitwise,
    dtypes included."""
    def same(got, want):
        return got.dtype == want.dtype and np.array_equal(got, want)

    mesh = generate_channel(params)
    nodes, cells, facets, facet_cells, marker, h = oracles.channel_by_loops(params)
    assert same(mesh.nodes, nodes) and same(mesh.cells, cells)
    assert same(mesh.facets, facets) and same(mesh.facet_cells, facet_cells)
    assert same(mesh.facet_marker, marker) and mesh.h == h
    part = partition_coarse(mesh, n_domains, mode=mode, seed=seed)
    assert same(part.cell_to_domain,
                oracles.partition_by_loops(mesh, n_domains, mode, seed))
    return mesh, part


@pytest.mark.parametrize("params,n_domains,mode,seed", _topology_cases())
def test_topology_matches_loop_oracles(params, n_domains, mode, seed):
    _assert_topology_matches_loops(params, n_domains, mode, seed)


def test_slab_repair_matches_loops_and_connects_every_domain():
    # at n_cells // 20 domains the slabs are thinner than a quad column, and
    # the repair reassigns 960 of the 2928 cells
    params = replace(cli.load_preset("test1_rbc").channel_params(), target_cells=3000)
    n_domains = generate_channel(params).n_cells // 20
    mesh, part = _assert_topology_matches_loops(params, n_domains, "structured", 0)
    assert n_domains == 146
    assert not np.array_equal(part.cell_to_domain,
                              oracles.slab_assignment(mesh, n_domains))
    adj = oracles.cell_adjacency_lists(mesh)
    for i in range(n_domains):
        assert len(oracles.components_by_dfs(part.domain_cells(i), adj)) == 1
