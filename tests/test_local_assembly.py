"""Per-domain operators and snapshot loads, assembled on the domain's own
dofs, are bitwise equal to the same operators assembled at global size and
restricted (the path kept in oracles.py), and so are the spaces built from
them.  The pinned local Stokes systems are nearly singular, so anything less
than bitwise equality could move the velocity snapshots."""

import os
import threading

import numpy as np
import pytest

import oracles
from channelms import transport_basis, velocity_basis
from channelms.assembly import (Discretization, LocalDomain,
                                assemble_local_concentration_forms,
                                assemble_local_velocity_forms, hat_ends,
                                local_diffusion_with_bc, local_interior_form,
                                local_upwind_convection, scalar_mass)
from channelms.mesh import ChannelParams, generate_channel, partition_coarse
from channelms.transport_basis import (build_concentration_space,
                                       concentration_snapshots, local_operators)
from channelms.velocity_basis import (build_velocity_space, local_stokes,
                                      velocity_snapshots)

MU, GAMMA, D, ALPHA, TAU = 1.0, 8.0, 0.05, 0.3, 0.1
NONE = np.array([], dtype=int)


@pytest.fixture(scope="module")
def unstructured():
    dz = Discretization.from_mesh(generate_channel(ChannelParams(
        length=0.5, half_width=0.05, target_cells=400, flip_seed=3)))
    return dz, partition_coarse(dz.mesh, 4, mode="unstructured", seed=1)


def _layout(request, name):
    """(dz, partition) of the 8-cell, the 400-cell structured or the 400-cell
    unstructured fixture."""
    if name == "tiny":
        return (request.getfixturevalue("tiny_dz"),
                request.getfixturevalue("tiny_partition"))
    if name == "small":
        return (request.getfixturevalue("small_dz"),
                request.getfixturevalue("small_partition"))
    return request.getfixturevalue("unstructured")


@pytest.fixture(params=["tiny", "small", "unstructured"])
def case(request):
    return _layout(request, request.param)


def _domains(dz, partition):
    return [LocalDomain.build(dz.mesh, partition, i)
            for i in range(partition.n_domains)]


def _velocity(dz, rng):
    return rng.uniform(0.5, 1.5, dz.dofs.n_velocity)


def _same(got, want):
    assert got.format == want.format and got.shape == want.shape
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def _boundary_sets(dom):
    """(dirichlet, robin) facets of every family and wall condition."""
    ge, gw, bd = dom.gamma_e, dom.gamma_w, dom.boundary()
    return [(np.concatenate([ge, gw]), NONE), (ge, gw), (ge, NONE),  # interface
            (gw, NONE), (NONE, gw), (NONE, NONE),  # wall
            (bd, NONE)]  # pooled, bubble


def test_local_operators_equal_restricted_ones(case, rng, monkeypatch):
    dz, partition = case
    u_h = _velocity(dz, rng)
    factored = []
    monkeypatch.setattr(velocity_basis, "splu", factored.append)
    for dom in _domains(dz, partition):
        interior = local_interior_form(dz, dom, MU, GAMMA)
        restricted = oracles.restricted_interior_form(dz, dom, MU, GAMMA)
        _same(interior, restricted)
        local_stokes(dz, dom, MU, GAMMA, interior)
        _same(factored.pop(), oracles.pinned_stokes(
            *oracles.restricted_stokes(dz, dom, MU, GAMMA)))
        for got, want in zip(assemble_local_velocity_forms(dz, dom, interior),
                             oracles.restricted_velocity_forms(dz, dom, restricted)):
            _same(got, want)
        interior = local_interior_form(dz, dom, D, GAMMA)
        restricted = oracles.restricted_interior_form(dz, dom, D, GAMMA)
        _same(interior, restricted)
        for got, want in zip(assemble_local_concentration_forms(dz, dom, interior),
                             oracles.restricted_concentration_forms(dz, dom, restricted)):
            _same(got, want)
        for dirichlet, robin in _boundary_sets(dom):
            _same(local_diffusion_with_bc(dz, dom, D, GAMMA, dirichlet, robin,
                                          ALPHA, interior),
                  oracles.restricted_diffusion_with_bc(dz, dom, D, GAMMA, dirichlet,
                                                       robin, ALPHA, restricted))
        _same(scalar_mass(dz, cells=dom.cells), oracles.restricted_mass(dz, dom))
        _same(local_upwind_convection(dz, dom, u_h),
              oracles.restricted_upwind_convection(dz, dom, u_h))


class _Capture:
    """An LU stand-in that keeps the right-hand sides it is given."""

    def solve(self, rhs):
        self.rhs = np.array(rhs)
        return rhs


@pytest.mark.parametrize("variant", ["elliptic", "timevelocity"])
def test_snapshot_loads_equal_restricted_ones(case, variant, rng, monkeypatch):
    dz, partition = case
    u_ms = _velocity(dz, rng)
    loads = []
    monkeypatch.setattr(transport_basis, "_solve_local",
                        lambda A, rhs, M_loc: loads.append(np.array(rhs)) or rhs)
    for dom in _domains(dz, partition):
        if variant == "elliptic":
            for direction in (None, 0, 1):
                got, want = _Capture(), _Capture()
                velocity_snapshots(dz, dom, direction, MU, GAMMA, got)
                oracles.velocity_snapshots_one_by_one(dz, dom, direction, MU,
                                                      GAMMA, want)
                assert np.array_equal(got.rhs, want.rhs)
        ops = local_operators(dz, dom, variant, D, GAMMA, u_ms, TAU)
        for family in transport_basis.FAMILIES:
            for bc in ("dbc", "nbc", "rbc"):
                def snapshots():
                    loads.clear()
                    concentration_snapshots(dz, dom, family, bc, variant, D, ALPHA,
                                            GAMMA, *ops, u_ms, TAU)
                    return list(loads)
                got = snapshots()
                with monkeypatch.context() as m:
                    m.setattr(transport_basis, "hat_loads",
                              oracles.hat_loads_one_by_one)
                    want = snapshots()
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (family, bc)


def test_hat_ends_and_inside_sides_match_their_loops(case):
    dz, partition = case
    mesh, t = dz.mesh, dz.quad.facet_points
    for dom in _domains(dz, partition):
        inside = np.zeros(mesh.n_cells, dtype=bool)
        inside[dom.cells] = True
        for fids in (dom.gamma_e, dom.gamma_w, dom.boundary()):
            n_nodes, ends = hat_ends(dz, fids)
            gvals = np.zeros((n_nodes, len(fids), len(t)))
            gvals[ends[:, 0], np.arange(len(fids))] = 1.0 - t
            gvals[ends[:, 1], np.arange(len(fids))] = t
            assert np.array_equal(gvals, oracles.hat_traces(dz, fids)[1])
            sides, signs = dom.inside_side(mesh, fids)
            want = np.where(inside[mesh.facet_cells[fids, 0]], 0, 1)
            assert np.array_equal(sides, want)
            assert np.array_equal(signs, np.where(want == 0, 1.0, -1.0))


CONCENTRATION = [("type1", "elliptic", "dbc"), ("type2", "elliptic", "nbc"),
                 ("type1", "timevelocity", "rbc"), ("type2", "timevelocity", "rbc")]


def _spaces(dz, partition, u_ms, threads):
    spaces = [build_velocity_space(dz, partition, kind, 3, MU, GAMMA, threads=threads)
              for kind in ("type1", "type2")]
    for kind, variant, bc in CONCENTRATION:
        kw = dict(u_ms=u_ms, tau=TAU) if variant == "timevelocity" else {}
        spaces.append(build_concentration_space(dz, partition, kind, 2, bc, variant,
                                                D, ALPHA, GAMMA, threads=threads, **kw))
    return spaces


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("layout", ["small", "unstructured"])
def test_spaces_equal_restricted_path(layout, threads, request, rng, monkeypatch):
    dz, partition = _layout(request, layout)
    u_ms = _velocity(dz, rng)
    new = _spaces(dz, partition, u_ms, threads)
    with monkeypatch.context() as m:
        for target, fn in oracles.RESTRICTED_PATH.items():
            m.setattr(target, fn)
        old = _spaces(dz, partition, u_ms, threads)
    for got, want in zip(new, old):
        _same(got.R, want.R)
        assert got.eigen_rows == want.eigen_rows


@pytest.mark.parametrize("module", [velocity_basis, transport_basis])
def test_threads_capped_at_usable_cores(module, small_dz, small_partition,
                                        monkeypatch):
    # with one usable core a threads=4 build runs its jobs in this thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    job = ("velocity_snapshots" if module is velocity_basis
           else "concentration_snapshots")
    inner, threads_seen = getattr(module, job), set()

    def traced(*args, **kwargs):
        threads_seen.add(threading.get_ident())
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, job, traced)

    def build(threads):
        if module is velocity_basis:
            return build_velocity_space(small_dz, small_partition, "type1", 2,
                                        MU, GAMMA, threads=threads)
        return build_concentration_space(small_dz, small_partition, "type2", 2,
                                         "rbc", "elliptic", D, ALPHA, GAMMA,
                                         threads=threads)
    capped = build(4)
    assert threads_seen == {threading.get_ident()}
    _same(capped.R, build(1).R)
