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
                       hat_traces, nitsche_rhs_values)
from .mesh import CoarsePartition
from .spectral import ModeBlock, NestedSpace, spectral_reduce


def local_stokes(dz: Discretization, dom: LocalDomain, mu: float,
                 gamma_u: float):
    """Assemble and factor the local Stokes system of a domain, so that every
    snapshot direction reuses the same LU; the local pressure constant is
    pinned at the first pressure dof.  Returns the SuperLU factorization."""
    if len(dom.gamma_e) == 0:
        raise ValueError(f"domain {dom.index} has no non-wall boundary facets")
    A, B = assemble_local_stokes(dz, dom, mu, gamma_u)
    nv = A.shape[0]
    K = sp.bmat([[A, B.T], [B, None]], format="lil")
    # pin the pressure constant: replace the first continuity row by p_0 = 0
    K.rows[nv] = [nv]
    K.data[nv] = [1.0]
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
    domain's `local_stokes`; the solve stays one call per direction, because
    the near-singular pinned system makes the snapshots sensitive to how the
    right-hand sides are blocked.
    """
    mesh = dz.mesh
    ge = dom.gamma_e
    sides, signs = dom.inside_side(mesh, ge)
    nodes, gvals = hat_traces(dz, ge)

    # geometric facet data for the loads
    lens = dz.facet_geom.lengths[ge]
    normals = dz.facet_geom.normals[ge] * signs[:, None]
    in_cells = mesh.facet_cells[ge, sides]
    local_in = np.searchsorted(dom.cells, in_cells)  # dom.cells is sorted
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
            Fp = np.zeros(len(dom.cells))
            np.add.at(Fp, local_in, lens * normals[:, r] * gint[l])
            Fp -= flux / volume * areas
            Fp[0] = 0.0  # pinned row
            rhs_cols.append(np.concatenate([Fu, Fp]))

    sols = lu.solve(np.stack(rhs_cols, axis=1))
    return sols[:len(vdofs)].T


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
    One job per domain builds its local domain, factors its local Stokes
    system and assembles its spectral forms once for all of its directions.
    """
    kind = kind.lower()
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown velocity space kind {kind!r}")
    directions = [None] if kind == "type1" else [0, 1]

    def run(i):
        dom = LocalDomain.build(dz.mesh, partition, i)
        lu = local_stokes(dz, dom, mu, gamma_u)
        forms = assemble_local_velocity_forms(dz, dom, mu, gamma_u)
        return [spectral_reduce_velocity(
                    dom, -1 if r is None else r,
                    velocity_snapshots(dz, dom, r, mu, gamma_u, lu), forms, M)
                for r in directions]

    with ThreadPoolExecutor(max_workers=threads) as ex:
        # one worker runs the jobs in this thread: a pool thread allocates
        # from its own malloc arena, which raised the peak RSS by up to 25 %
        run_all = ex.map if threads > 1 else map
        per_domain = list(run_all(run, range(partition.n_domains)))
    return NestedSpace.stack("velocity", [b for bs in per_domain for b in bs],
                             dz.dofs.n_velocity, extra_dof=partition.n_domains)


def expected_flow_dof(kind: str, n_domains: int, M: int, d: int = 2) -> int:
    """Reported coarse flow dofs: N_H(M+1) pooled, N_H(d*M+1) per-direction."""
    if kind.lower() == "type1":
        return n_domains * (M + 1)
    return n_domains * (d * M + 1)
