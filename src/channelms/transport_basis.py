"""Concentration multiscale basis construction.

Snapshots come in two families per domain: interface snapshots carry hat data
on the non-wall boundary with the physical wall condition, and wall snapshots
carry hat data in the wall condition itself with zero diffusive flux on the
interface.  A pooled variant imposes Dirichlet hats on the whole local
boundary.  All local boundary data is imposed weakly at the physical penalty,
matching the global scheme.  The reduction eigenproblem is diffusion-only;
one interior bubble per domain completes the space.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (Discretization, LocalDomain,
                       assemble_local_concentration_forms, facet_rhs_values,
                       hat_loads, local_diffusion_with_bc, local_interior_form,
                       local_upwind_convection, nitsche_rhs_values,
                       scalar_mass, upwind_boundary_rhs)
from .mesh import CoarsePartition
from .spectral import ModeBlock, NestedSpace, pool_workers, spectral_reduce

log = logging.getLogger(__name__)

FAMILIES = ("interface", "wall", "pooled")
VARIANTS = ("elliptic", "timevelocity")


def _check_variant(variant, u_ms, tau):
    if variant not in VARIANTS:
        raise ValueError(f"unknown snapshot variant {variant!r}")
    if variant == "timevelocity" and (u_ms is None or tau is None):
        raise ValueError("timevelocity needs a velocity and a time step")


def local_operators(dz: Discretization, dom: LocalDomain, variant: str,
                    D: float, gamma_c: float, u_ms=None, tau=None):
    """(interior, M, transient): what the local operators of a domain share,
    built once per domain job: its `local_interior_form`, its mass and, for
    time+velocity, M/tau with its upwind convection (empty for elliptic)."""
    _check_variant(variant, u_ms, tau)
    M = scalar_mass(dz, cells=dom.cells)
    transient = ()
    if variant == "timevelocity":
        transient = (M / tau, local_upwind_convection(dz, dom, u_ms))
    return local_interior_form(dz, dom, D, gamma_c), M, transient


def _local_operator(dz, dom, D, gamma_c, dirichlet_fids, robin_fids, alpha,
                    interior, transient):
    A = local_diffusion_with_bc(dz, dom, D, gamma_c, dirichlet_fids,
                                robin_fids, alpha, interior)
    return sum(transient, A).tocsr()  # (A + M/tau) + C


def _solve_local(A, rhs, M_loc=None):
    """Factor-and-solve; with M_loc given, the pure-Neumann nullspace is fixed
    by a zero-mean constraint through a Lagrange multiplier."""
    if M_loc is None:
        return splu(A.tocsc()).solve(rhs)
    m = np.asarray(M_loc @ np.ones(A.shape[0]))
    K = sp.bmat([[A, m[:, None]], [m[None, :], None]], format="csc")
    aug = np.zeros((A.shape[0] + 1, rhs.shape[1]))
    aug[:-1] = rhs
    return splu(K).solve(aug)[:-1]


def concentration_snapshots(dz: Discretization, dom: LocalDomain, family: str,
                            bc_kind: str, variant: str, D: float, alpha: float,
                            gamma_c: float, interior, M_loc, transient,
                            u_ms=None, tau=None) -> np.ndarray:
    """Solve the local transport problems for every boundary trace node of the
    family's data boundary, with the domain's `local_operators` (`interior`,
    `M_loc`, `transient`).  Returns (n_snap, local scalar dofs), ordered by
    boundary node; a wall family on a domain without walls has no rows."""
    if family not in FAMILIES:
        raise ValueError(f"unknown snapshot family {family!r}")
    if bc_kind not in ("dbc", "nbc", "rbc"):
        raise ValueError(f"unknown wall boundary condition {bc_kind!r}")
    _check_variant(variant, u_ms, tau)
    ge, gw = dom.gamma_e, dom.gamma_w

    if family == "interface":
        data_fids, nitsche_data = ge, True
        dirichlet = np.concatenate([ge, gw]) if bc_kind == "dbc" else ge
        robin = gw if bc_kind == "rbc" else np.array([], dtype=int)
    elif family == "wall":
        if len(gw) == 0:
            log.warning("domain %d has no wall facets; wall family empty", dom.index)
            return np.zeros((0, 3 * len(dom.cells)))
        data_fids, nitsche_data = gw, bc_kind == "dbc"
        dirichlet = gw if bc_kind == "dbc" else np.array([], dtype=int)
        robin = gw if bc_kind == "rbc" else np.array([], dtype=int)
    else:  # pooled: Dirichlet hats on the whole local boundary
        data_fids, nitsche_data = dom.boundary(), True
        dirichlet = dom.boundary()
        robin = np.array([], dtype=int)

    if len(data_fids) == 0:
        raise ValueError(f"domain {dom.index} has no data boundary for family "
                         f"{family!r}")

    A = _local_operator(dz, dom, D, gamma_c, dirichlet, robin, alpha,
                        interior, transient)
    singular = (variant == "elliptic" and len(dirichlet) == 0
                and (len(robin) == 0 or alpha == 0.0))

    sides, signs = dom.inside_side(dz.mesh, data_fids)
    if nitsche_data:
        rhs = hat_loads(dz, dom, data_fids, lambda g: nitsche_rhs_values(
            dz, data_fids, sides, signs, D, gamma_c, g))
        if variant == "timevelocity":
            rhs += hat_loads(dz, dom, data_fids, lambda g: upwind_boundary_rhs(
                dz, data_fids, sides, signs, u_ms, g))
    else:
        # nbc: prescribed outward diffusive flux datum; rbc: wall data
        coeff = -1.0 if bc_kind == "nbc" else alpha
        rhs = hat_loads(dz, dom, data_fids, lambda g: facet_rhs_values(
            dz, data_fids, sides, g, coeff))

    return _solve_local(A, rhs.T, M_loc if singular else None).T


def spectral_reduce_concentration(dom: LocalDomain, label: str,
                                  snapshots: np.ndarray, forms,
                                  M: int | None) -> ModeBlock:
    """Diffusion-only eigenproblem selecting the M dominant modes of one
    family's snapshots (every mode up to the Gram rank when M is None), with
    the domain's forms (A, S).  A family without snapshots gives an empty
    block."""
    dofs = dom.scalar_dofs()
    if len(snapshots) == 0:
        eigenvalues, vectors = np.zeros(0), np.zeros((0, len(dofs)))
    else:
        try:
            basis = spectral_reduce(snapshots, *forms, M)
        except ValueError as exc:
            raise ValueError(f"concentration basis on domain {dom.index} "
                             f"({label} family), M={M}: {exc}") from exc
        eigenvalues, vectors = basis.eigenvalues, basis.vectors
    return ModeBlock(domain=dom.index, label=label, eigenvalues=eigenvalues,
                     vectors=vectors, dofs=dofs)


def interior_basis(dz: Discretization, dom: LocalDomain, variant: str,
                   D: float, gamma_c: float, interior, M_loc, transient,
                   u_ms=None, tau=None) -> np.ndarray:
    """Per-domain bubble: zero Dirichlet trace, unit source, unit L2 norm,
    with the domain's `local_operators` (`interior`, `M_loc`, `transient`)."""
    _check_variant(variant, u_ms, tau)
    A = _local_operator(dz, dom, D, gamma_c, dom.boundary(),
                        np.array([], dtype=int), 0.0, interior, transient)
    scale = 1.0 / tau if variant == "timevelocity" else 1.0
    F = scale * np.asarray(M_loc @ np.ones(M_loc.shape[0]))
    c = splu(A.tocsc()).solve(F)
    nrm = np.sqrt(c @ (M_loc @ c))
    if nrm > 0:
        c = c / nrm
    return c


def build_concentration_space(dz: Discretization, partition: CoarsePartition,
                              kind: str, M: int | None, bc_kind: str,
                              variant: str, D: float, alpha: float,
                              gamma_c: float, u_ms=None, tau=None,
                              threads: int = 1) -> NestedSpace:
    """Assemble per-domain concentration bases into projection rows: each
    domain's family modes followed by its bubble.  One job per domain builds
    its local domain and its `local_operators`, and assembles its spectral
    forms once for all of its families (workers as in
    `build_velocity_space`)."""
    kind = kind.lower()
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown concentration space kind {kind!r}")
    families = ["pooled"] if kind == "type1" else ["interface", "wall"]

    def run(i):
        dom = LocalDomain.build(dz.mesh, partition, i)
        interior, M_loc, transient = local_operators(dz, dom, variant, D,
                                                     gamma_c, u_ms, tau)
        forms = assemble_local_concentration_forms(dz, dom, interior)
        blocks = []
        for fam in families:
            snaps = concentration_snapshots(dz, dom, fam, bc_kind, variant, D,
                                            alpha, gamma_c, interior, M_loc,
                                            transient, u_ms, tau)
            blocks.append(spectral_reduce_concentration(dom, fam, snaps,
                                                        forms, M))
        bubble = interior_basis(dz, dom, variant, D, gamma_c, interior, M_loc,
                                transient, u_ms, tau)
        blocks.append(ModeBlock(domain=i, label="bubble", eigenvalues=np.zeros(0),
                                vectors=bubble[None, :], dofs=dom.scalar_dofs()))
        return blocks

    workers = pool_workers(threads)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        run_all = ex.map if workers > 1 else map  # as in build_velocity_space
        per_domain = list(run_all(run, range(partition.n_domains)))
    return NestedSpace.stack("concentration", [b for bs in per_domain for b in bs],
                             dz.dofs.n_concentration)


def expected_transport_dof(kind: str, n_domains: int, M: int) -> int:
    """Reported coarse transport dofs: N_H(M+1) pooled, N_H(2M+1) per-family."""
    if kind.lower() == "type1":
        return n_domains * (M + 1)
    return n_domains * (2 * M + 1)
