"""Velocity multiscale basis construction.

Per coarse domain, snapshots are local Stokes solves driven by hat-function
boundary data on the non-wall boundary (one snapshot per boundary trace node
and direction), with a constant divergence source enforcing compatibility.
A generalized eigenproblem built from the local viscous form and the boundary
Gram matrix then selects the dominant modes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (DATA_PENALTY, Discretization, LocalDomain,
                       assemble_local_stokes, assemble_local_velocity_forms,
                       nitsche_rhs_values)
from .mesh import CoarsePartition
from .spectral import ModeBlock, NestedSpace, spectral_reduce


@dataclass
class VelocitySnapshotSet:
    """Local Stokes snapshots on one domain.

    direction is 0/1 for a per-direction family, or None when both directions
    are pooled into one set.  snapshots has shape (n_snap, local velocity dofs)
    ordered by boundary node (then direction for pooled sets).
    """

    domain: int
    direction: int | None
    nodes: np.ndarray  # global mesh node ids on the non-wall boundary
    snapshots: np.ndarray
    local: LocalDomain


def _boundary_node_data(dz: Discretization, fids: np.ndarray):
    """Hat-function data per boundary trace node on the given facets.

    Returns (nodes, gvals) with gvals of shape (n_nodes, n_facets, nq): the
    trace of the hat centered at each node along each facet.
    """
    mesh, quad = dz.mesh, dz.quad
    t = quad.facet_points
    pairs = mesh.facets[fids]  # (nF, 2)
    nodes = np.unique(pairs)
    gvals = np.zeros((len(nodes), len(fids), len(t)))
    pos = {n: k for k, n in enumerate(nodes)}
    for j, (a, b) in enumerate(pairs):
        gvals[pos[a], j] = 1.0 - t
        gvals[pos[b], j] = t
    return nodes, gvals


@dataclass
class LocalStokes:
    """Domain i's local Stokes saddle system, pressure-pinned and factored once
    so that every snapshot direction reuses the same LU."""

    local: LocalDomain
    lu: object  # scipy SuperLU
    n_velocity: int
    n_pressure: int


def local_stokes(dz: Discretization, partition: CoarsePartition, i: int,
                 mu: float, gamma_u: float) -> LocalStokes:
    """Assemble and factor the local Stokes system of domain i; the local
    pressure constant is pinned at the first pressure dof."""
    dom = LocalDomain.build(dz.mesh, partition, i)
    if len(dom.gamma_e) == 0:
        raise ValueError(f"domain {i} has no non-wall boundary facets")
    A, B = assemble_local_stokes(dz, dom, mu, gamma_u)
    nv = A.shape[0]
    K = sp.bmat([[A, B.T], [B, None]], format="lil")
    # pin the pressure constant: replace the first continuity row by p_0 = 0
    K.rows[nv] = [nv]
    K.data[nv] = [1.0]
    try:
        lu = splu(K.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"singular local flow system on domain {i}: {exc}")
    return LocalStokes(local=dom, lu=lu, n_velocity=nv, n_pressure=B.shape[0])


def velocity_snapshots(dz: Discretization, partition: CoarsePartition, i: int,
                       direction: int | None, mu: float, gamma_u: float,
                       stokes: LocalStokes | None = None) -> VelocitySnapshotSet:
    """Solve the local Stokes problems for every boundary trace node.

    Each snapshot imposes a unit hat in the given component on the non-wall
    boundary (zero on walls), with the constant divergence source required for
    compatibility.  `stokes` reuses domain i's factored system; the solve
    stays one call per direction, because the near-singular pinned system
    makes the snapshots sensitive to how the right-hand sides are blocked.
    """
    mesh = dz.mesh
    if stokes is None:
        stokes = local_stokes(dz, partition, i, mu, gamma_u)
    dom, nv, npr = stokes.local, stokes.n_velocity, stokes.n_pressure
    ge = dom.gamma_e
    sides, signs = dom.inside_side(mesh, ge)
    nodes, gvals = _boundary_node_data(dz, ge)

    # geometric facet data for the loads
    lens = dz.facet_geom.lengths[ge]
    normals = dz.facet_geom.normals[ge] * signs[:, None]
    in_cells = mesh.facet_cells[ge, sides]
    cell_pos = {c: k for k, c in enumerate(dom.cells)}
    local_in = np.array([cell_pos[c] for c in in_cells])
    areas = dz.cell_geom.areas[dom.cells]
    volume = areas.sum()
    w = dz.quad.facet_weights
    vdofs = dom.velocity_dofs()

    directions = [direction] if direction is not None else [0, 1]
    gint = np.einsum("q,lfq->lf", w, gvals)  # ∫ hat ds / len
    rhs_cols = []
    for r in directions:
        for l in range(len(nodes)):
            fs = nitsche_rhs_values(dz, ge, sides, signs, mu,
                                    gamma_u * DATA_PENALTY, gvals[l])
            # scalar dof 3c+k maps to velocity dof 2*(3c+k)+r
            full = np.zeros(dz.dofs.n_velocity)
            full[2 * np.arange(dz.dofs.n_concentration) + r] = fs
            Fu = full[vdofs]
            flux = float(np.sum(lens * normals[:, r] * gint[l]))
            Fp = np.zeros(npr)
            np.add.at(Fp, local_in, lens * normals[:, r] * gint[l])
            Fp -= flux / volume * areas
            Fp[0] = 0.0  # pinned row
            rhs_cols.append(np.concatenate([Fu, Fp]))

    sols = stokes.lu.solve(np.stack(rhs_cols, axis=1))
    snaps = sols[:nv].T  # (n_snap, nv)
    return VelocitySnapshotSet(domain=i, direction=direction, nodes=nodes,
                               snapshots=snaps, local=dom)


def spectral_reduce_velocity(dz: Discretization, partition: CoarsePartition,
                             snapshots: VelocitySnapshotSet, M: int | None,
                             mu: float, gamma_u: float,
                             forms=None) -> ModeBlock:
    """Reduce a snapshot set to its M smallest-eigenvalue modes (every mode up
    to the Gram rank when M is None).  `forms` reuses the domain's (A, S)."""
    if forms is None:
        forms = assemble_local_velocity_forms(dz, partition, snapshots.domain,
                                              mu, gamma_u)
    r = snapshots.direction
    name = "pooled directions" if r is None else f"direction {r}"
    try:
        basis = spectral_reduce(snapshots.snapshots, *forms, M)
    except ValueError as exc:
        raise ValueError(f"velocity basis on domain {snapshots.domain} "
                         f"({name}), M={M}: {exc}") from exc
    return ModeBlock(domain=snapshots.domain, label=-1 if r is None else r,
                     eigenvalues=basis.eigenvalues, vectors=basis.vectors,
                     dofs=snapshots.local.velocity_dofs())


def build_velocity_space(dz: Discretization, partition: CoarsePartition,
                         kind: str, M: int | None, mu: float, gamma_u: float,
                         threads: int = 1) -> NestedSpace:
    """Build all per-domain bases and stack them into projection rows.

    kind "type1" pools both directions into one spectral problem per domain
    (M modes each); "type2" keeps a per-direction family (d*M modes each).
    Each domain adds one pressure value to the reported dofs.
    One job per domain factors its local Stokes system and assembles its
    spectral forms once for all of its directions.
    """
    kind = kind.lower()
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown velocity space kind {kind!r}")
    directions = [None] if kind == "type1" else [0, 1]

    def run(i):
        stokes = local_stokes(dz, partition, i, mu, gamma_u)
        forms = assemble_local_velocity_forms(dz, partition, i, mu, gamma_u)
        return [spectral_reduce_velocity(
                    dz, partition,
                    velocity_snapshots(dz, partition, i, r, mu, gamma_u, stokes),
                    M, mu, gamma_u, forms)
                for r in directions]

    domains = range(partition.n_domains)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            per_domain = list(ex.map(run, domains))
    else:
        per_domain = [run(i) for i in domains]
    return NestedSpace.stack("velocity", [b for bs in per_domain for b in bs],
                             dz.dofs.n_velocity, extra_dof=partition.n_domains)


def expected_flow_dof(kind: str, n_domains: int, M: int, d: int = 2) -> int:
    """Reported coarse flow dofs: N_H(M+1) pooled, N_H(d*M+1) per-direction."""
    if kind.lower() == "type1":
        return n_domains * (M + 1)
    return n_domains * (d * M + 1)
