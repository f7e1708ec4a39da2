"""Velocity multiscale basis construction.

Per coarse domain, snapshots are local Stokes solves driven by hat-function
boundary data on the non-wall boundary (one snapshot per boundary trace node
and direction), with a constant divergence source enforcing compatibility.
A generalized eigenproblem built from the local viscous form and the boundary
Gram matrix then selects the dominant modes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (DATA_PENALTY, Discretization, LocalDomain,
                       assemble_local_stokes, assemble_local_velocity_forms,
                       hat_ends, hat_loads, local_interior_form,
                       nitsche_rhs_values)
from .mesh import CoarsePartition
from .spectral import ModeBlock, NestedSpace, pool_workers, spectral_reduce


def local_stokes(dz: Discretization, dom: LocalDomain, mu: float,
                 gamma_u: float, interior: sp.csr_matrix):
    """Assemble and factor the local Stokes system of a domain (with its
    `local_interior_form` as `interior`), so that every snapshot direction
    reuses the same LU; the local pressure constant is pinned at the first
    pressure dof.  Returns the SuperLU factorization."""
    if len(dom.gamma_e) == 0:
        raise ValueError(f"domain {dom.index} has no non-wall boundary facets")
    A, B = assemble_local_stokes(dz, dom, mu, gamma_u, interior)
    nv = A.shape[0]
    K = sp.bmat([[A, B.T], [B, None]], format="coo")
    # pin the pressure constant: replace the first continuity row by p_0 = 0
    keep = K.row != nv
    K = sp.coo_matrix((np.append(K.data[keep], 1.0), (np.append(K.row[keep], nv),
                                                      np.append(K.col[keep], nv))), K.shape)
    try:
        return splu(K.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"singular local flow system on domain {dom.index}: "
                           f"{exc}")


def velocity_snapshots(dz: Discretization, dom: LocalDomain,
                       direction: int | None, mu: float, gamma_u: float,
                       lu) -> np.ndarray:
    """Solve the local Stokes problems for every boundary trace node; returns
    (n_snap, local velocity dofs), by direction then boundary node.

    Each snapshot imposes a unit hat in the given component (both when
    direction is None) on the non-wall boundary (zero on walls), with the
    constant divergence source required for compatibility.  `lu` is the
    domain's `local_stokes`.  The loads of all hats are built in one pass,
    but each direction keeps its own solve call (see `DATA_PENALTY`).
    """
    mesh, fg, quad = dz.mesh, dz.facet_geom, dz.quad
    ge = dom.gamma_e
    sides, signs = dom.inside_side(mesh, ge)
    # momentum: the hat's Nitsche load on the scalar dofs of one component
    fs = hat_loads(dz, dom, ge, lambda g: nitsche_rhs_values(
        dz, ge, sides, signs, mu, gamma_u * DATA_PENALTY, g))

    # continuity: the hat's flux through each facet, balanced by a constant
    # divergence source
    lens, normals = fg.lengths[ge], fg.normals[ge] * signs[:, None]
    local_in = np.searchsorted(dom.cells, mesh.facet_cells[ge, sides])
    areas = dz.cell_geom.areas[dom.cells]
    n_nodes, ends = hat_ends(dz, ge)  # ∫ hat ds / len: w·(1 - t), w·t at a facet's ends
    gint = np.zeros((n_nodes, len(ge)))
    gint[ends.T, np.arange(len(ge))] = np.einsum(
        "q,lq->l", quad.facet_weights, [1.0 - quad.facet_points, quad.facet_points])[:, None]

    directions = [direction] if direction is not None else [0, 1]
    nv = 2 * fs.shape[1]
    rhs = np.zeros((len(directions), len(fs), nv + len(dom.cells)))
    for Fk, r in zip(rhs, directions):
        Fk[:, r:nv:2] = fs  # scalar dof k is velocity dof 2k + r
        flux = lens * normals[:, r] * gint
        np.add.at(Fk[:, nv:], (np.arange(len(fs))[:, None], local_in), flux)
        Fk[:, nv:] -= flux.sum(axis=1)[:, None] / areas.sum() * areas
    rhs[:, :, nv] = 0.0  # pinned row
    return lu.solve(rhs.reshape(-1, rhs.shape[2]).T)[:nv].T


def spectral_reduce_velocity(dom: LocalDomain, label: int,
                             snapshots: np.ndarray, forms,
                             M: int | None) -> ModeBlock:
    """Reduce one direction's snapshots (label 0/1, or -1 when both are
    pooled) to their M smallest-eigenvalue modes (every mode up to the Gram
    rank when M is None), with the domain's forms (A, S)."""
    name = "pooled directions" if label == -1 else f"direction {label}"
    try:
        basis = spectral_reduce(snapshots, *forms, M)
    except ValueError as exc:
        raise ValueError(f"velocity basis on domain {dom.index} "
                         f"({name}), M={M}: {exc}") from exc
    return ModeBlock(domain=dom.index, label=label,
                     eigenvalues=basis.eigenvalues, vectors=basis.vectors,
                     dofs=dom.velocity_dofs())


def build_velocity_space(dz: Discretization, partition: CoarsePartition,
                         kind: str, M: int | None, mu: float, gamma_u: float,
                         threads: int = 1) -> NestedSpace:
    """Build all per-domain bases and stack them into projection rows.

    kind "type1" pools both directions into one spectral problem per domain
    (M modes each); "type2" keeps a per-direction family (d*M modes each).
    Each domain adds one pressure value to the reported dofs.
    One job per domain builds its local domain and its interior form, factors
    its local Stokes system and assembles its spectral forms once for all of
    its directions.  The jobs run on at most `threads` workers, and on no more
    than the cores the process may use where the platform tells (Linux).
    """
    kind = kind.lower()
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown velocity space kind {kind!r}")
    directions = [None] if kind == "type1" else [0, 1]

    def run(i):
        dom = LocalDomain.build(dz.mesh, partition, i)
        interior = local_interior_form(dz, dom, mu, gamma_u)
        lu = local_stokes(dz, dom, mu, gamma_u, interior)
        forms = assemble_local_velocity_forms(dz, dom, interior)
        return [spectral_reduce_velocity(
                    dom, -1 if r is None else r,
                    velocity_snapshots(dz, dom, r, mu, gamma_u, lu), forms, M)
                for r in directions]

    workers = pool_workers(threads)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        # one worker runs the jobs in this thread: a pool thread allocates
        # from its own malloc arena, which raised the peak RSS by up to 25 %
        run_all = ex.map if workers > 1 else map
        per_domain = list(run_all(run, range(partition.n_domains)))
    return NestedSpace.stack("velocity", [b for bs in per_domain for b in bs],
                             dz.dofs.n_velocity, extra_dof=partition.n_domains)


def expected_flow_dof(kind: str, n_domains: int, M: int, d: int = 2) -> int:
    """Reported coarse flow dofs: N_H(M+1) pooled, N_H(d*M+1) per-direction."""
    if kind.lower() == "type1":
        return n_domains * (M + 1)
    return n_domains * (d * M + 1)
