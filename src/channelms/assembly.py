"""Global and local IPDG operator assembly.

All facet machinery is written against "batches": interior facets couple the
two adjacent cells through jump/average terms, while one-sided batches carry a
(facet, side, orientation) triple so the same code serves global boundary
facets and local-domain boundaries (where a globally interior facet is seen
from one side only); local operators land on the domain's own dofs.  Scalar
P1 operators are assembled first; vector (velocity) operators are
component-wise copies of the scalar blocks.  The upwind convection, assembled
once per velocity, keeps its velocity-independent half in a `ConvectionPlan`
(the global one cached on the `Discretization`): a call computes the values
and scatters them onto the fixed pattern.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dgspace import CellGeometry, DofMaps, FacetGeometry, Quadrature, facet_points_xy, p1_values, quadrature
from .mesh import CoarsePartition, FacetMarker, Mesh

DEFAULT_CELL_ORDER = 4
DEFAULT_FACET_ORDER = 5

# Penalty multiplier for Dirichlet data in *local* problems.  Snapshot traces
# must match their prescribed boundary data to ~1e-8, otherwise neighboring
# domains' bases develop O(1) interface jumps that the global penalty term
# punishes; a huge one-sided penalty makes the weak imposition effectively
# strong without changing the assembly path.
#
# The price is conditioning: the pinned local Stokes systems are close to
# singular in floating point (cond(K) ~ 1.4e19 on domain 1 of test2_dbc at
# 8000 cells).  A 1e-16 relative change of the right-hand side moves its
# snapshots by 3.4 %, dropping its explicit zeros by 12 % and solving both
# directions as one block by 0.15 %.  Snapshots stay reproducible while every
# row keeps its entry order and each direction its own solve call; the
# increasing renumbering of local assembly keeps both (see LocalDomain).
DATA_PENALTY = 1e10


@dataclass(frozen=True)
class Discretization:
    """Mesh plus the precomputed geometry all assembly routines share."""

    mesh: Mesh
    dofs: DofMaps
    cell_geom: CellGeometry
    facet_geom: FacetGeometry
    quad: Quadrature

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "Discretization":
        return cls(
            mesh=mesh,
            dofs=DofMaps(mesh.n_cells),
            cell_geom=CellGeometry.from_mesh(mesh),
            facet_geom=FacetGeometry.from_mesh(mesh),
            quad=quadrature(DEFAULT_FACET_ORDER),
        )

    # cached_property writes the instance __dict__ directly, so it works on
    # this frozen (slot-free) dataclass; each mass is assembled on first use

    @cached_property
    def mass(self) -> sp.csr_matrix:
        """The unit-coefficient concentration mass matrix."""
        return scalar_mass(self)

    @cached_property
    def vector_mass(self) -> sp.csr_matrix:
        """The unit-coefficient velocity mass matrix."""
        return expand_to_vector(self.mass)

    def convection_plan(self) -> "ConvectionPlan":
        """The fixed pattern of the global upwind convection: interior facets
        two-sided, outflow and inflow facets one-sided.  Built once for each
        state of the mesh's facet markers."""
        markers = self.mesh.facet_marker
        cached = self.__dict__.get("_convection")
        if cached is None or not np.array_equal(cached[0], markers):
            ends = np.flatnonzero(np.isin(markers, (FacetMarker.OUTFLOW, FacetMarker.INFLOW)))
            cached = (markers.copy(), ConvectionPlan.build(
                self, np.arange(self.mesh.n_cells), self.mesh.interior_facets(), ends,
                np.zeros(len(ends), dtype=int), np.ones(len(ends))))
            self.__dict__["_convection"] = cached
        return cached[1]


@dataclass
class FlowOperators:
    """Fine-grid flow system blocks: (M/tau + A) u + B^T p = F_u,  B u = F_p."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    B: sp.csr_matrix  # (n_pressure, n_velocity)
    Fu: np.ndarray
    Fp: np.ndarray


@dataclass
class TransportOperators:
    """Fine-grid transport blocks: (M/tau) c + (A + C) c = F + M cprev / tau."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    C: sp.csr_matrix
    F: np.ndarray


# ---------------------------------------------------------------------------
# low-level batched facet helpers (scalar P1, dofs 3*cell + local)
# ---------------------------------------------------------------------------

def _traces(fg: FacetGeometry, quad: Quadrature, fids, sides):
    """(nF, nq, 3) trace values of the side cell's P1 basis on each facet."""
    t = quad.facet_points
    nF = len(fids)
    Tr = np.zeros((nF, len(t), 3))
    la = fg.local_nodes[fids, sides, 0]
    lb = fg.local_nodes[fids, sides, 1]
    idx = np.arange(nF)
    Tr[idx, :, la] = 1.0 - t[None, :]
    Tr[idx, :, lb] = t[None, :]
    return Tr


def _normal_derivs(cg: CellGeometry, normals, cells):
    """(nF, 3) normal derivative of each P1 basis function, constant per cell."""
    return np.einsum("fkc,fc->fk", cg.grads[cells], normals)


def sipg_interior(dz: Discretization, fids: np.ndarray, coeff: float, gamma: float):
    """Two-sided symmetric interior-penalty entries over the given facets.

    Returns (rows, cols, vals) in scalar dof numbering.
    """
    if len(fids) == 0:
        return _empty_entries()
    mesh, cg, fg, quad = dz.mesh, dz.cell_geom, dz.facet_geom, dz.quad
    w = quad.facet_weights
    cells = mesh.facet_cells[fids]  # (nF, 2)
    lens = fg.lengths[fids]
    normals = fg.normals[fids]
    sigma = np.array([1.0, -1.0])

    Tr = np.stack([_traces(fg, quad, fids, np.zeros(len(fids), dtype=int)),
                   _traces(fg, quad, fids, np.ones(len(fids), dtype=int))], axis=1)  # (nF,2,nq,3)
    dn = np.stack([_normal_derivs(cg, normals, cells[:, 0]),
                   _normal_derivs(cg, normals, cells[:, 1])], axis=1)  # (nF,2,3)

    phi_int = lens[:, None, None] * np.einsum("q,fsqi->fsi", w, Tr)  # ∫ phi ds
    phiphi = lens[:, None, None, None, None] * np.einsum("q,fsqi,ftqj->fsitj", w, Tr, Tr)

    # -({k dn c}[r] + {k dn r}[c]) + gamma/h {k} [c][r];   h = facet length
    E = np.zeros_like(phiphi)
    # term: -0.5*coeff*dn(trial side t, j) * sigma_s * ∫ phi_i^s
    E -= 0.5 * coeff * np.einsum("ftj,fsi,s->fsitj", dn, phi_int, sigma)
    E -= 0.5 * coeff * np.einsum("fsi,ftj,t->fsitj", dn, phi_int, sigma)
    E += (gamma * coeff / lens)[:, None, None, None, None] * \
        np.einsum("fsitj,s,t->fsitj", phiphi, sigma, sigma)

    base = 3 * cells  # (nF, 2)
    rows = (base[:, :, None, None, None] + np.arange(3)[None, None, :, None, None])
    rows = np.broadcast_to(rows, E.shape)
    cols = (base[:, None, None, :, None] + np.arange(3)[None, None, None, None, :])
    cols = np.broadcast_to(cols, E.shape)
    return rows.ravel(), cols.ravel(), E.ravel()


def sipg_onesided(dz: Discretization, fids, sides, signs, coeff: float, gamma: float):
    """Single-sided (weak Dirichlet) interior-penalty entries.

    `signs` flips the stored facet normal so it points out of the chosen side.
    """
    if len(fids) == 0:
        return _empty_entries()
    mesh, cg, fg, quad = dz.mesh, dz.cell_geom, dz.facet_geom, dz.quad
    w = quad.facet_weights
    cells = mesh.facet_cells[fids, sides]
    lens = fg.lengths[fids]
    normals = fg.normals[fids] * np.asarray(signs, dtype=float)[:, None]

    Tr = _traces(fg, quad, fids, sides)  # (nF,nq,3)
    dn = _normal_derivs(cg, normals, cells)
    phi_int = lens[:, None] * np.einsum("q,fqi->fi", w, Tr)
    phiphi = lens[:, None, None] * np.einsum("q,fqi,fqj->fij", w, Tr, Tr)

    E = -coeff * (np.einsum("fj,fi->fij", dn, phi_int)
                  + np.einsum("fi,fj->fij", dn, phi_int))
    E += (gamma * coeff / lens)[:, None, None] * phiphi

    base = 3 * cells
    rows = np.broadcast_to(base[:, None, None] + np.arange(3)[None, :, None], E.shape)
    cols = np.broadcast_to(base[:, None, None] + np.arange(3)[None, None, :], E.shape)
    return rows.ravel(), cols.ravel(), E.ravel()


def facet_mass_onesided(dz: Discretization, fids, sides, coeff: float = 1.0):
    """∫_E c r entries on the chosen side of each facet (boundary/Robin mass)."""
    if len(fids) == 0:
        return _empty_entries()
    mesh, fg, quad = dz.mesh, dz.facet_geom, dz.quad
    w = quad.facet_weights
    cells = mesh.facet_cells[fids, sides]
    lens = fg.lengths[fids]
    Tr = _traces(fg, quad, fids, sides)
    E = coeff * lens[:, None, None] * np.einsum("q,fqi,fqj->fij", w, Tr, Tr)
    base = 3 * cells
    rows = np.broadcast_to(base[:, None, None] + np.arange(3)[None, :, None], E.shape)
    cols = np.broadcast_to(base[:, None, None] + np.arange(3)[None, None, :], E.shape)
    return rows.ravel(), cols.ravel(), E.ravel()


def _empty_entries():
    z = np.zeros(0)
    return z.astype(np.int64), z.astype(np.int64), z


# ---------------------------------------------------------------------------
# scalar volume operators
# ---------------------------------------------------------------------------

# on every cell, or on the sorted `cells` of one domain and its own dofs

def scalar_mass(dz: Discretization, coeff: float = 1.0, cells=None) -> sp.csr_matrix:
    areas = dz.cell_geom.areas if cells is None else dz.cell_geom.areas[cells]
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    blocks = coeff * areas[:, None, None] * local[None, :, :]
    return _blocks_to_csr(blocks, 3 * len(areas))


def scalar_stiffness(dz: Discretization, coeff: float = 1.0, cells=None) -> sp.csr_matrix:
    cg = dz.cell_geom
    areas, g = (cg.areas, cg.grads) if cells is None else (cg.areas[cells], cg.grads[cells])
    blocks = coeff * areas[:, None, None] * np.einsum("cik,cjk->cij", g, g)
    return _blocks_to_csr(blocks, 3 * len(areas))


def _blocks_to_csr(blocks: np.ndarray, n: int) -> sp.csr_matrix:
    nc = blocks.shape[0]
    base = 3 * np.arange(nc)
    rows = np.broadcast_to(base[:, None, None] + np.arange(3)[None, :, None], blocks.shape)
    cols = np.broadcast_to(base[:, None, None] + np.arange(3)[None, None, :], blocks.shape)
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def expand_to_vector(mat: sp.spmatrix) -> sp.csr_matrix:
    """Scalar (3nc) operator applied component-wise on the 6nc velocity space."""
    coo = mat.tocoo()
    rows = np.concatenate([2 * coo.row, 2 * coo.row + 1])
    cols = np.concatenate([2 * coo.col, 2 * coo.col + 1])
    vals = np.concatenate([coo.data, coo.data])
    n = 2 * mat.shape[0]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# global flow assembly
# ---------------------------------------------------------------------------

def _marker_ids(mesh: Mesh, marker: FacetMarker) -> np.ndarray:
    return np.flatnonzero(mesh.facet_marker == marker)


def assemble_flow(dz: Discretization, mu: float, rho: float, gamma_u: float,
                  inflow) -> FlowOperators:
    """Assemble the IPDG Stokes operators.

    `inflow(x)` returns the (nq, 2) boundary velocity on inflow facets.  Facet
    terms run over all facets except outflow (the do-nothing boundary).
    """
    mesh, dofs = dz.mesh, dz.dofs
    interior = mesh.interior_facets()
    inflow_ids = _marker_ids(mesh, FacetMarker.INFLOW)
    wall_ids = _marker_ids(mesh, FacetMarker.WALL)
    if len(inflow_ids) == 0:
        warnings.warn("no inflow facets: flow is driven by walls only")

    dirichlet = np.concatenate([inflow_ids, wall_ids])
    d_sides = np.zeros(len(dirichlet), dtype=int)
    d_signs = np.ones(len(dirichlet))

    entries = [
        _csr_entries(scalar_stiffness(dz, mu)),
        sipg_interior(dz, interior, mu, gamma_u),
        sipg_onesided(dz, dirichlet, d_sides, d_signs, mu, gamma_u),
    ]
    A_scalar = _merge(entries, dofs.n_concentration)
    A = expand_to_vector(A_scalar)
    M = expand_to_vector(scalar_mass(dz, rho))
    B = _assemble_b(dz, interior, dirichlet, d_sides, d_signs)

    Fu = np.zeros(dofs.n_velocity)
    Fp = np.zeros(dofs.n_pressure)
    _flow_rhs(dz, inflow_ids, mu, gamma_u, inflow, Fu, Fp)
    return FlowOperators(M=M, A=A, B=B, Fu=Fu, Fp=Fp)


def _csr_entries(mat: sp.spmatrix):
    coo = mat.tocoo()
    return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data


def _merge(entry_list, n) -> sp.csr_matrix:
    rows = np.concatenate([e[0] for e in entry_list])
    cols = np.concatenate([e[1] for e in entry_list])
    vals = np.concatenate([e[2] for e in entry_list])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    out.sum_duplicates()
    return out


def _assemble_b(dz: Discretization, interior, dirichlet, d_sides, d_signs,
                cells=None) -> sp.csr_matrix:
    """b(u, q) = -sum_K ∫ q div u + sum_E ∫ {q} [u]·n  (facets minus outflow).

    `d_sides`/`d_signs` generalize the one-sided batch to local-domain
    boundaries; the sorted `cells` of a domain restrict the volume term to
    them and number its dofs by rank (pressure rank(c), velocity
    6 rank(c) + j).
    """
    mesh, cg, fg, quad = dz.mesh, dz.cell_geom, dz.facet_geom, dz.quad
    rows, cols, vals = [], [], []

    # volume: -area * q * grad(phi_j)_comp
    vc = np.arange(mesh.n_cells) if cells is None else cells
    vol = -cg.areas[vc][:, None, None] * cg.grads[vc]  # (nc,3,2)
    r = np.broadcast_to(vc[:, None, None], vol.shape)
    c = (6 * vc[:, None, None] + 2 * np.arange(3)[None, :, None]
         + np.arange(2)[None, None, :])
    rows.append(r.ravel()); cols.append(c.ravel()); vals.append(vol.ravel())

    w = quad.facet_weights
    if len(interior):
        fc = mesh.facet_cells[interior]
        lens = fg.lengths[interior]
        normals = fg.normals[interior]
        sigma = np.array([1.0, -1.0])
        Tr = np.stack([_traces(fg, quad, interior, np.zeros(len(interior), dtype=int)),
                       _traces(fg, quad, interior, np.ones(len(interior), dtype=int))], axis=1)
        phi_int = lens[:, None, None] * np.einsum("q,fsqj->fsj", w, Tr)  # (nF,2,3)
        # val[p_side s, u_side t, j, comp] = 0.5 * sigma_t * n_comp * ∫phi_j^t
        E = 0.5 * np.einsum("t,fc,ftj->ftjc", sigma, normals, phi_int)  # u part
        for ps in range(2):
            r = np.broadcast_to(fc[:, ps][:, None, None, None], E.shape)
            cidx = (6 * fc[:, :, None, None] + 2 * np.arange(3)[None, None, :, None]
                    + np.arange(2)[None, None, None, :])
            rows.append(r.ravel()); cols.append(cidx.ravel()); vals.append(E.ravel())
    if len(dirichlet):
        fc = mesh.facet_cells[dirichlet, d_sides]
        lens = fg.lengths[dirichlet]
        normals = fg.normals[dirichlet] * np.asarray(d_signs, dtype=float)[:, None]
        Tr = _traces(fg, quad, dirichlet, d_sides)
        phi_int = lens[:, None] * np.einsum("q,fqj->fj", w, Tr)
        E = np.einsum("fc,fj->fjc", normals, phi_int)
        r = np.broadcast_to(fc[:, None, None], E.shape)
        cidx = (6 * fc[:, None, None] + 2 * np.arange(3)[None, :, None]
                + np.arange(2)[None, None, :])
        rows.append(r.ravel()); cols.append(cidx.ravel()); vals.append(E.ravel())

    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if cells is not None:
        rows, cols = _renumber(cells, rows, 1), _renumber(cells, cols, 6)
    return sp.coo_matrix((np.concatenate(vals), (rows, cols)),
                         shape=(len(vc), 6 * len(vc))).tocsr()


def _flow_rhs(dz: Discretization, data_fids, mu, gamma_u, data, Fu, Fp):
    """Nitsche momentum data terms plus continuity data  ∫ (g·n) q."""
    mesh, cg, fg, quad = dz.mesh, dz.cell_geom, dz.facet_geom, dz.quad
    w, t = quad.facet_weights, quad.facet_points
    for f in data_fids:
        c = mesh.facet_cells[f, 0]
        length = fg.lengths[f]
        n = fg.normals[f]
        Tr = fg.trace_matrix(f, 0, t)
        dn = cg.grads[c] @ n
        g = data(facet_points_xy(mesh, f, t))  # (nq,2)
        for comp in range(2):
            gi = g[:, comp]
            vals = length * (gamma_u * mu / length * (Tr * (w * gi)[:, None]).sum(axis=0)
                             - mu * dn * np.dot(w, gi))
            Fu[6 * c + 2 * np.arange(3) + comp] += vals
        Fp[c] += length * np.dot(w, g @ n)


# ---------------------------------------------------------------------------
# global transport assembly
# ---------------------------------------------------------------------------

def _as_callable(data):
    if callable(data):
        return data
    return lambda x: np.full(len(x), float(data))


def assemble_transport(dz: Discretization, D: float, alpha: float, gamma_c: float,
                       wall_bc: str, wall_data, c_in, u_h,
                       source=None) -> TransportOperators:
    """Assemble diffusion, mass, upwind convection and transport loads.

    wall_bc selects the wall treatment: "dbc" (weak Dirichlet with value
    wall_data), "nbc" (outward diffusive flux wall_data) or "rbc" (flux
    alpha*(c - wall_data)).  u_h may be None for pure diffusion.
    """
    mesh, dofs = dz.mesh, dz.dofs
    interior = mesh.interior_facets()
    inflow_ids = _marker_ids(mesh, FacetMarker.INFLOW)
    wall_ids = _marker_ids(mesh, FacetMarker.WALL)
    wall_bc = wall_bc.lower()
    if wall_bc not in ("dbc", "nbc", "rbc"):
        raise ValueError(f"unknown wall boundary condition {wall_bc!r}")
    if wall_bc == "rbc" and alpha < 0:
        raise ValueError("Robin coefficient alpha must be nonnegative")

    zeros = lambda ids: np.zeros(len(ids), dtype=int)
    ones = lambda ids: np.ones(len(ids))
    n = dofs.n_concentration

    entries = [
        _csr_entries(scalar_stiffness(dz, D)),
        sipg_interior(dz, interior, D, gamma_c),
        sipg_onesided(dz, inflow_ids, zeros(inflow_ids), ones(inflow_ids), D, gamma_c),
    ]
    F = _load(n, nitsche_rhs_values(dz, inflow_ids, zeros(inflow_ids), ones(inflow_ids), D,
                                    gamma_c, _facet_data(dz, inflow_ids, _as_callable(c_in))))
    g = _facet_data(dz, wall_ids, _as_callable(wall_data))
    if wall_bc == "dbc":
        entries.append(sipg_onesided(dz, wall_ids, zeros(wall_ids), ones(wall_ids), D, gamma_c))
        F += _load(n, nitsche_rhs_values(dz, wall_ids, zeros(wall_ids), ones(wall_ids), D,
                                         gamma_c, g))
    elif wall_bc == "rbc":
        entries.append(facet_mass_onesided(dz, wall_ids, zeros(wall_ids), alpha))
        F += _load(n, facet_rhs_values(dz, wall_ids, zeros(wall_ids), g, alpha))
    else:  # nbc: -D grad c . n = wall_data, contributes only to the load
        F += _load(n, facet_rhs_values(dz, wall_ids, zeros(wall_ids), g, -1.0))

    A = _merge(entries, n)
    M = scalar_mass(dz)

    if source is not None:
        _volume_rhs(dz, source, F)

    if u_h is None:
        C = sp.csr_matrix((dofs.n_concentration, dofs.n_concentration))
    else:
        C, Fc = assemble_convection(dz, u_h, c_in)
        F += Fc
    return TransportOperators(M=M, A=A, C=C, F=F)


def _volume_rhs(dz: Discretization, source, F):
    quadq = quadrature(DEFAULT_CELL_ORDER)
    pts, w = quadq.cell_points, quadq.cell_weights
    vals = p1_values(pts)  # (nq,3)
    p = dz.mesh.nodes[dz.mesh.cells]  # (nc,3,2)
    xq = np.einsum("qk,ckd->cqd", vals, p)  # physical quad points
    fq = np.stack([source(xq[c]) for c in range(len(p))])  # (nc, nq)
    contrib = 2.0 * dz.cell_geom.areas[:, None] * np.einsum("q,cq,qi->ci", w, fq, vals)
    F += contrib.reshape(-1)


# ---------------------------------------------------------------------------
# upwind convection: velocity-dependent values on a fixed pattern
# ---------------------------------------------------------------------------
#
# A P1 trace lives on the facet's two nodes: seen from either side, facet node
# a is the cell's local node local_nodes[f, side, a], weighted 1 - t (a = 0)
# or t (a = 1) in the shared facet parameter, and the third basis function
# vanishes.  Every facet term is thus a 2 x 2 block on the node dofs
# 3 * cell + local node, which also index the velocity as u_h.reshape(-1, 2).

def _node_dofs(dz: Discretization, fids, sides) -> np.ndarray:
    """(nF, 2) scalar dofs of the two facet nodes in the cell on `sides`."""
    cells = dz.mesh.facet_cells[fids, sides]
    return 3 * cells[:, None] + dz.facet_geom.local_nodes[fids, sides]


def _normal_velocity(U: np.ndarray, node_dofs, normals, T) -> np.ndarray:
    """u·n at the facet quadrature points, (..., nq); U is u_h.reshape(-1, 2)."""
    return (U[node_dofs] @ normals[..., None])[..., 0] @ T.T


def _facet_data(dz: Discretization, fids, data) -> np.ndarray:
    """(nF, nq) values of the callable `data` at the facet quadrature points."""
    mesh, t = dz.mesh, dz.quad.facet_points
    a, b = (mesh.nodes[mesh.facets[fids, k]][:, None, :] for k in (0, 1))
    x = a * (1.0 - t)[None, :, None] + b * t[None, :, None]
    return np.asarray(data(x.reshape(-1, 2)), dtype=float).reshape(len(fids), len(t))


@dataclass(frozen=True)
class ConvectionPlan:
    """The velocity-independent half of an upwind convection operator

        C(c, r) = -sum_K ∫ (u c)·grad r
                  + sum_{two-sided E} ∫ ((u+·n)^+ c+ + (u-·n)^- c-) [r]
                  + sum_{one-sided E} ∫ (u·n)^+ c r

    over a sorted set of cells and their facets: the P1 trace and quadrature
    tables, the global node dofs of each facet side (where `assemble` reads
    the velocity), and the fixed CSR pattern on the cells' own dofs with the
    slot in its data of every value `assemble` computes.
    """

    cells: np.ndarray
    shared: np.ndarray  # two-sided facets
    shared_dofs: np.ndarray  # (nS, side, node)
    onesided: np.ndarray
    onesided_dofs: np.ndarray  # (nO, node), on the side the normal leaves
    signs: np.ndarray  # orients each one-sided normal out of its side
    mass: np.ndarray  # (3, 3) reference ∫ phi_k phi_j
    trace: np.ndarray  # (nq, 2) facet node traces
    weights: np.ndarray  # (nq, 4) w_q trace_a trace_b
    slot: np.ndarray  # int32 CSR slot of every value
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def build(cls, dz: Discretization, cells, shared, onesided, sides,
              signs) -> "ConvectionPlan":
        quadc, t = quadrature(DEFAULT_CELL_ORDER), dz.quad.facet_points
        phis = p1_values(quadc.cell_points)
        T = np.column_stack([1.0 - t, t])
        sd = np.stack([_node_dofs(dz, shared, np.zeros(len(shared), dtype=int)),
                       _node_dofs(dz, shared, np.ones(len(shared), dtype=int))], axis=1)
        od = _node_dofs(dz, onesided, sides)
        cells = np.asarray(cells)
        sdl, odl = _renumber(cells, sd), _renumber(cells, od)
        # value order of `assemble`: volume (c, i, j), two-sided
        # (test side, f, trial side, a, b), one-sided (f, a, b)
        vol = 3 * np.arange(len(cells))[:, None, None] + np.zeros((1, 3, 3), dtype=int)
        rows = [vol + np.arange(3)[:, None], sdl.transpose(1, 0, 2)[:, :, None, :, None],
                odl[:, :, None]]
        cols = [vol + np.arange(3), sdl[None, :, :, None, :], odl[:, None, :]]
        shapes = [vol.shape, (2, len(shared), 2, 2, 2), (len(onesided), 2, 2)]
        n = 3 * len(cells)
        key = np.concatenate([(np.broadcast_to(r, s) * n + np.broadcast_to(c, s)).ravel()
                              for r, c, s in zip(rows, cols, shapes)])
        pattern, slot = np.unique(key, return_inverse=True)
        # every assembled matrix shares these two arrays, so none may change them
        indptr = np.searchsorted(pattern, n * np.arange(n + 1)).astype(np.int32)
        indices = (pattern % n).astype(np.int32)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        TT = (T[:, :, None] * T[:, None, :]).reshape(len(t), 4)
        return cls(cells=cells, shared=shared, shared_dofs=sd,
                   onesided=onesided, onesided_dofs=od,
                   signs=np.asarray(signs, dtype=float),
                   mass=phis.T @ (quadc.cell_weights[:, None] * phis), trace=T,
                   weights=dz.quad.facet_weights[:, None] * TT,
                   slot=slot.astype(np.int32), indptr=indptr, indices=indices)

    def assemble(self, dz: Discretization, u_h) -> sp.csr_matrix:
        cg, fg = dz.cell_geom, dz.facet_geom
        U = np.asarray(u_h, dtype=float).reshape(-1, 2)
        c = self.cells
        G = cg.grads[c] @ U.reshape(-1, 3, 2)[c].transpose(0, 2, 1)  # u_k·grad phi_i
        vol = (-2.0 * cg.areas[c])[:, None, None] * (G @ self.mass)
        un = _normal_velocity(U, self.shared_dofs, fg.normals[self.shared][:, None, :],
                              self.trace)  # (nS, side, nq)
        un[:, 0] = np.maximum(un[:, 0], 0.0)  # plus side: positive part
        un[:, 1] = np.minimum(un[:, 1], 0.0)  # minus side: negative part
        two = fg.lengths[self.shared][:, None, None] * (un @ self.weights)
        un = _normal_velocity(U, self.onesided_dofs,
                              fg.normals[self.onesided] * self.signs[:, None], self.trace)
        one = fg.lengths[self.onesided][:, None] * (np.maximum(un, 0.0) @ self.weights)
        values = np.concatenate([vol.ravel(), two.ravel(), -two.ravel(), one.ravel()])
        n = len(self.indptr) - 1
        return sp.csr_matrix((np.bincount(self.slot, values, len(self.indices)),
                              self.indices, self.indptr), shape=(n, n))


def assemble_convection(dz: Discretization, u_h, c_in):
    """(C, F) upwind convection operator on the fixed pattern of
    `dz.convection_plan()` and its inflow data load  -∫ (u·n)^- c_in r."""
    inflow = _marker_ids(dz.mesh, FacetMarker.INFLOW)
    F = _load(dz.dofs.n_concentration,
              upwind_boundary_rhs(dz, inflow, np.zeros(len(inflow), dtype=int),
                                  np.ones(len(inflow)), u_h,
                                  _facet_data(dz, inflow, _as_callable(c_in))))
    return dz.convection_plan().assemble(dz, u_h), F


def upwind_boundary_rhs(dz: Discretization, fids, sides, signs, u_h, gvals):
    """Inflow data load  -∫ (u·n)^- gvals r  as (dofs, vals) entries of shape
    (nF, 2) on the facet node dofs; u_h is read at global dofs."""
    fg, quad = dz.facet_geom, dz.quad
    T = np.column_stack([1.0 - quad.facet_points, quad.facet_points])
    dofs = _node_dofs(dz, fids, sides)
    normals = fg.normals[fids] * np.asarray(signs, dtype=float)[:, None]
    un = _normal_velocity(np.asarray(u_h, dtype=float).reshape(-1, 2), dofs, normals, T)
    flux = quad.facet_weights * np.minimum(un, 0.0) * gvals
    return dofs, -fg.lengths[fids][:, None] * (flux[:, :, None] * T).sum(axis=1)


def _load(n: int, entries) -> np.ndarray:
    """The length-n load vector of (dofs, vals) entries, summed in order."""
    out = np.zeros(n)
    np.add.at(out, *entries)
    return out


# ---------------------------------------------------------------------------
# local domains: operators and loads on a domain's own dofs
# ---------------------------------------------------------------------------
#
# Global dof 3c+k of a domain is its local dof 3 rank(c) + k, rank(c) being
# the position of c in the sorted `LocalDomain.cells` (velocity 6c+j and
# pressure c likewise).  The map is increasing, so each row of a local
# operator keeps the entry sequence of its global row: scipy's duplicate sort,
# every sum and every explicit zero are those of the restricted global one.

def _renumber(cells: np.ndarray, dofs: np.ndarray, per_cell: int = 3) -> np.ndarray:
    """Local numbers of global dofs, `per_cell` to a cell, of the sorted `cells`."""
    return per_cell * np.searchsorted(cells, dofs // per_cell) + dofs % per_cell


@dataclass(frozen=True)
class LocalDomain:
    """Fine-grid view of one coarse cell: cells, facet classes, dof mapping."""

    index: int
    cells: np.ndarray  # global cell ids, sorted
    interior_facets: np.ndarray  # both sides inside the domain
    gamma_e: np.ndarray  # interface + global inflow/outflow facets
    gamma_w: np.ndarray  # wall facets on the local boundary

    @classmethod
    def build(cls, mesh: Mesh, partition: CoarsePartition, i: int) -> "LocalDomain":
        cells = partition.domain_cells(i)
        if len(cells) == 0:
            raise ValueError(f"domain {i} is empty")
        inside = np.zeros(mesh.n_cells, dtype=bool)
        inside[cells] = True
        cp, cm = mesh.facet_cells[:, 0], mesh.facet_cells[:, 1]
        both = inside[cp] & (cm >= 0) & inside[np.maximum(cm, 0)]
        gamma_e, gamma_w = partition.boundary_facets(mesh, i)
        return cls(index=i, cells=cells, interior_facets=np.flatnonzero(both),
                   gamma_e=gamma_e, gamma_w=gamma_w)

    def boundary(self) -> np.ndarray:
        return np.concatenate([self.gamma_e, self.gamma_w])

    def inside_side(self, mesh: Mesh, fids) -> tuple[np.ndarray, np.ndarray]:
        """(sides, signs): which facet side lies inside, and the outward-normal
        sign for that side."""
        plus = mesh.facet_cells[fids, 0]
        at = np.minimum(np.searchsorted(self.cells, plus), len(self.cells) - 1)
        sides = np.where(self.cells[at] == plus, 0, 1)
        return sides, np.where(sides == 0, 1.0, -1.0)

    def local(self, entries):
        """(rows, cols, vals) entries on the domain's scalar dofs, renumbered."""
        rows, cols, vals = entries
        return _renumber(self.cells, rows), _renumber(self.cells, cols), vals

    def scalar_dofs(self) -> np.ndarray:
        return (3 * self.cells[:, None] + np.arange(3)[None, :]).reshape(-1)

    def velocity_dofs(self) -> np.ndarray:
        return (6 * self.cells[:, None] + np.arange(6)[None, :]).reshape(-1)


def local_interior_form(dz: Discretization, dom: LocalDomain, coeff: float,
                        gamma: float) -> sp.csr_matrix:
    """The domain's scalar DG form: volume stiffness on its cells plus SIPG
    over its interior facets.  A domain job builds it once and passes it as
    `interior` to its forms and local operators."""
    return _merge([_csr_entries(scalar_stiffness(dz, coeff, dom.cells)),
                   dom.local(sipg_interior(dz, dom.interior_facets, coeff, gamma))],
                  3 * len(dom.cells))


def assemble_local_concentration_forms(dz: Discretization, dom: LocalDomain,
                                       interior: sp.csr_matrix):
    """(A, S) for the concentration spectral problem on a local domain: its
    `interior` form and the facet mass over the local boundary (scalar)."""
    fids = dom.boundary()
    sides, _ = dom.inside_side(dz.mesh, fids)
    S = _merge([dom.local(facet_mass_onesided(dz, fids, sides, 1.0))], 3 * len(dom.cells))
    return interior, S


def assemble_local_velocity_forms(dz: Discretization, dom: LocalDomain,
                                  interior: sp.csr_matrix):
    """(A, S) for the velocity spectral problem on a local domain: the scalar
    forms (`interior` of viscosity mu), component-wise on local velocity dofs."""
    A, S = assemble_local_concentration_forms(dz, dom, interior)
    return expand_to_vector(A), expand_to_vector(S)


def assemble_local_stokes(dz: Discretization, dom: LocalDomain, mu: float,
                          gamma_u: float, interior: sp.csr_matrix):
    """(A, B) of the local Stokes system with weak Dirichlet data on the whole
    local boundary, on local velocity/pressure dofs."""
    bd = dom.boundary()
    sides, signs = dom.inside_side(dz.mesh, bd)
    A = _merge([_csr_entries(interior), dom.local(
        sipg_onesided(dz, bd, sides, signs, mu, gamma_u * DATA_PENALTY))], 3 * len(dom.cells))
    B = _assemble_b(dz, dom.interior_facets, bd, sides, signs, cells=dom.cells)
    return expand_to_vector(A), B


def local_diffusion_with_bc(dz: Discretization, dom: LocalDomain, D: float,
                            gamma_c: float, dirichlet_fids, robin_fids,
                            alpha: float, interior: sp.csr_matrix) -> sp.csr_matrix:
    """Local scalar diffusion operator: the `interior` form plus weak Dirichlet
    on `dirichlet_fids` (physical penalty gamma_c) and Robin mass on
    `robin_fids`."""
    entries = [_csr_entries(interior)]
    if len(dirichlet_fids):
        sides, signs = dom.inside_side(dz.mesh, dirichlet_fids)
        entries.append(dom.local(sipg_onesided(dz, dirichlet_fids, sides, signs, D, gamma_c)))
    if len(robin_fids) and alpha != 0.0:
        sides, _ = dom.inside_side(dz.mesh, robin_fids)
        entries.append(dom.local(facet_mass_onesided(dz, robin_fids, sides, alpha)))
    return _merge(entries, 3 * len(dom.cells))


def local_upwind_convection(dz: Discretization, dom: LocalDomain, u_h) -> sp.csr_matrix:
    """Convection operator of a local domain: volume + interior upwind +
    one-sided (u·n)^+ over the whole local boundary, on local dofs."""
    bd = dom.boundary()
    sides, signs = dom.inside_side(dz.mesh, bd)
    return ConvectionPlan.build(dz, dom.cells, dom.interior_facets, bd, sides,
                                signs).assemble(dz, u_h)


# ---------------------------------------------------------------------------
# local snapshot loads (facet data given as per-quad-point value arrays)
# ---------------------------------------------------------------------------

def hat_ends(dz: Discretization, fids: np.ndarray):
    """(n_nodes, ends): how many trace nodes the facets `fids` have and, per
    facet, the positions of its two end nodes among them (ascending ids); a
    node's hat is `1 - t` along the facets it starts and `t` along the rest."""
    nodes, ends = np.unique(dz.mesh.facets[fids], return_inverse=True)
    return len(nodes), ends.reshape(len(fids), 2)


def hat_loads(dz: Discretization, dom: LocalDomain, fids, load) -> np.ndarray:
    """(n_nodes, local scalar dofs): the load of every hat of `hat_ends` on
    `fids`, for a `load(gvals)` linear in its (nF, nq) facet data that returns
    (dofs, vals) entries.  The `1 - t` and `t` traces are loaded once for all
    facets, and each hat adds its facets' share in ascending facet order, as
    one load call per hat would."""
    t = dz.quad.facet_points
    n_nodes, ends = hat_ends(dz, fids)
    (dofs, first), (_, second) = (load(np.tile(g, (len(fids), 1))) for g in (1.0 - t, t))
    out = np.zeros((n_nodes, 3 * len(dom.cells)))
    np.add.at(out, (ends[:, :, None], _renumber(dom.cells, dofs)[:, None, :]),
              np.stack([first, second], axis=1))
    return out


def nitsche_rhs_values(dz: Discretization, fids, sides, signs, coeff, gamma,
                       gvals):
    """Weak-Dirichlet data load for scalar facet data `gvals` of shape (nF, nq),
    as (dofs, vals) entries of shape (nF, 3) on the side cells' dofs."""
    mesh, cg, fg, quad = dz.mesh, dz.cell_geom, dz.facet_geom, dz.quad
    w = quad.facet_weights
    cells = mesh.facet_cells[fids, sides]
    lens = fg.lengths[fids]
    normals = fg.normals[fids] * np.asarray(signs, dtype=float)[:, None]
    Tr = _traces(fg, quad, fids, sides)
    dn = _normal_derivs(cg, normals, cells)
    vals = gamma * coeff * np.einsum("q,fqi,fq->fi", w, Tr, gvals)
    vals -= coeff * lens[:, None] * dn * np.einsum("q,fq->f", w, gvals)[:, None]
    return 3 * cells[:, None] + np.arange(3)[None, :], vals


def facet_rhs_values(dz: Discretization, fids, sides, gvals, coeff: float = 1.0):
    """∫_E gvals * r load, as (dofs, vals) entries of shape (nF, 3)."""
    mesh, fg, quad = dz.mesh, dz.facet_geom, dz.quad
    cells = mesh.facet_cells[fids, sides]
    Tr = _traces(fg, quad, fids, sides)
    vals = coeff * fg.lengths[fids][:, None] * np.einsum(
        "q,fqi,fq->fi", quad.facet_weights, Tr, gvals)
    return 3 * cells[:, None] + np.arange(3)[None, :], vals
