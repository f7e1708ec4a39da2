"""Independent dense brute-force assembly used to cross-check the sparse code.

Everything here is recomputed from the raw mesh arrays with exact polynomial
integration (no quadrature, no shared geometry helpers):

  cell integrals of barycentric monomials:
      int_K l1^a l2^b l3^c dx = a! b! c! / (a+b+c+2)! * 2 |K|
  facet integrals of the parameterized traces:
      int_0^1 (1-t)^a t^b dt = a! b! / (a+b+1)!

P1 basis coefficients come from solving the 3x3 Vandermonde system per cell,
so gradients and traces do not reuse the package's formulas.
"""

from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from channelms import assembly as asm
from channelms.assembly import DEFAULT_CELL_ORDER, _traces
from channelms.dgspace import p1_values, quadrature
from channelms.mesh import FacetMarker


def _bary_integral(a, b, c, area):
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2) * 2.0 * area


def _pair01(v0, v1, w0, w1):
    """int_0^1 (v0(1-t)+v1 t)(w0(1-t)+w1 t) dt, exact."""
    return v0 * w0 / 3.0 + (v0 * w1 + v1 * w0) / 6.0 + v1 * w1 / 3.0


def _single01(v0, v1):
    return 0.5 * (v0 + v1)


class MeshData:
    """Per-cell affine coefficients and per-facet geometry, all recomputed."""

    def __init__(self, mesh):
        self.mesh = mesh
        nc = mesh.n_cells
        self.area = np.zeros(nc)
        self.coeff = np.zeros((nc, 3, 3))  # [cell, basis, (a,b,c)]: a + b x + c y
        for c in range(nc):
            p = mesh.nodes[mesh.cells[c]]
            V = np.column_stack([np.ones(3), p[:, 0], p[:, 1]])
            self.coeff[c] = np.linalg.solve(V, np.eye(3)).T
            x, y = p[:, 0], p[:, 1]
            self.area[c] = 0.5 * abs((x[1] - x[0]) * (y[2] - y[0])
                                     - (x[2] - x[0]) * (y[1] - y[0]))
        nf = mesh.n_facets
        self.length = np.zeros(nf)
        self.normal = np.zeros((nf, 2))
        for f in range(nf):
            a, b = mesh.facets[f]
            d = mesh.nodes[b] - mesh.nodes[a]
            self.length[f] = np.hypot(*d)
            n = np.array([d[1], -d[0]]) / self.length[f]
            mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            cp = mesh.facet_cells[f, 0]
            centroid = mesh.nodes[mesh.cells[cp]].mean(axis=0)
            if np.dot(n, mid - centroid) < 0:
                n = -n
            self.normal[f] = n  # plus -> minus, outward on the boundary

    def grad(self, cell, k):
        return self.coeff[cell, k, 1:]

    def basis_at(self, cell, k, x):
        a, b, c = self.coeff[cell, k]
        return a + b * x[0] + c * x[1]

    def trace(self, f, cell, k):
        """(value at facet node 0, value at facet node 1) of basis (cell, k)."""
        a, b = self.mesh.facets[f]
        return (self.basis_at(cell, k, self.mesh.nodes[a]),
                self.basis_at(cell, k, self.mesh.nodes[b]))

    def dn(self, f, cell, k, sign=1.0):
        return float(self.grad(cell, k) @ (sign * self.normal[f]))


def scalar_mass(md: MeshData, coeff=1.0):
    n = 3 * md.mesh.n_cells
    M = np.zeros((n, n))
    for c in range(md.mesh.n_cells):
        for i in range(3):
            for j in range(3):
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                M[3 * c + i, 3 * c + j] = coeff * _bary_integral(*e, md.area[c])
    return M


def scalar_stiffness(md: MeshData, coeff=1.0):
    n = 3 * md.mesh.n_cells
    A = np.zeros((n, n))
    for c in range(md.mesh.n_cells):
        for i in range(3):
            for j in range(3):
                A[3 * c + i, 3 * c + j] = coeff * md.area[c] * float(
                    md.grad(c, i) @ md.grad(c, j))
    return A


def sipg_interior(md: MeshData, fids, coeff, gamma):
    """-int({k dn c}[r] + {k dn r}[c]) + gamma k/h int [c][r]; [v] = v+ - v-."""
    n = 3 * md.mesh.n_cells
    A = np.zeros((n, n))
    for f in fids:
        cells = md.mesh.facet_cells[f]
        h = md.length[f]
        for s, sig_s in ((0, 1.0), (1, -1.0)):      # test side
            for t, sig_t in ((0, 1.0), (1, -1.0)):  # trial side
                for i in range(3):
                    vi = md.trace(f, cells[s], i)
                    for j in range(3):
                        vj = md.trace(f, cells[t], j)
                        val = gamma * coeff / h * sig_s * sig_t * h * _pair01(*vi, *vj)
                        val -= 0.5 * coeff * md.dn(f, cells[t], j) * sig_s * h * _single01(*vi)
                        val -= 0.5 * coeff * md.dn(f, cells[s], i) * sig_t * h * _single01(*vj)
                        A[3 * cells[s] + i, 3 * cells[t] + j] += val
    return A


def sipg_onesided(md: MeshData, fids, sides, coeff, gamma):
    """Weak Dirichlet on the chosen side of each facet, with the normal
    pointing out of that side."""
    n = 3 * md.mesh.n_cells
    A = np.zeros((n, n))
    for f, side in zip(fids, sides):
        c = md.mesh.facet_cells[f, side]
        sgn = 1.0 if side == 0 else -1.0
        h = md.length[f]
        for i in range(3):
            vi = md.trace(f, c, i)
            for j in range(3):
                vj = md.trace(f, c, j)
                val = gamma * coeff * _pair01(*vi, *vj)
                val -= coeff * md.dn(f, c, j, sgn) * h * _single01(*vi)
                val -= coeff * md.dn(f, c, i, sgn) * h * _single01(*vj)
                A[3 * c + i, 3 * c + j] += val
    return A


def facet_mass(md: MeshData, fids, sides, coeff=1.0):
    n = 3 * md.mesh.n_cells
    A = np.zeros((n, n))
    for f, side in zip(fids, sides):
        c = md.mesh.facet_cells[f, side]
        for i in range(3):
            vi = md.trace(f, c, i)
            for j in range(3):
                vj = md.trace(f, c, j)
                A[3 * c + i, 3 * c + j] += coeff * md.length[f] * _pair01(*vi, *vj)
    return A


def transport_diffusion(md: MeshData, D, alpha, gamma_c, wall_bc):
    """Dense analogue of the global transport diffusion operator A."""
    mesh = md.mesh
    interior = mesh.interior_facets()
    inflow = np.flatnonzero(mesh.facet_marker == FacetMarker.INFLOW)
    walls = np.flatnonzero(mesh.facet_marker == FacetMarker.WALL)
    zeros = lambda ids: np.zeros(len(ids), dtype=int)
    A = scalar_stiffness(md, D)
    A += sipg_interior(md, interior, D, gamma_c)
    A += sipg_onesided(md, inflow, zeros(inflow), D, gamma_c)
    if wall_bc == "dbc":
        A += sipg_onesided(md, walls, zeros(walls), D, gamma_c)
    elif wall_bc == "rbc":
        A += facet_mass(md, walls, zeros(walls), alpha)
    return A


def expand_vector(As):
    """Scalar operator applied per component on the interleaved vector dofs."""
    n = As.shape[0]
    A = np.zeros((2 * n, 2 * n))
    for d in range(2):
        A[d::2, d::2] = As
    return A


def flow_viscous(md: MeshData, mu, gamma_u):
    mesh = md.mesh
    interior = mesh.interior_facets()
    dirich = np.concatenate([
        np.flatnonzero(mesh.facet_marker == FacetMarker.INFLOW),
        np.flatnonzero(mesh.facet_marker == FacetMarker.WALL)])
    As = scalar_stiffness(md, mu)
    As += sipg_interior(md, interior, mu, gamma_u)
    As += sipg_onesided(md, dirich, np.zeros(len(dirich), dtype=int), mu, gamma_u)
    return expand_vector(As)


def divergence_coupling(md: MeshData):
    """b(u, q) = -sum_K int q div u + int {q}[u].n over non-outflow facets."""
    mesh = md.mesh
    nP, nU = mesh.n_cells, 6 * mesh.n_cells
    B = np.zeros((nP, nU))
    for c in range(mesh.n_cells):
        for j in range(3):
            g = md.grad(c, j)
            for comp in range(2):
                B[c, 6 * c + 2 * j + comp] -= md.area[c] * g[comp]
    for f in mesh.interior_facets():
        cells = md.mesh.facet_cells[f]
        h, n = md.length[f], md.normal[f]
        for ps in range(2):            # pressure (test) side, average weight 1/2
            for t, sig_t in ((0, 1.0), (1, -1.0)):
                for j in range(3):
                    vj = md.trace(f, cells[t], j)
                    for comp in range(2):
                        B[cells[ps], 6 * cells[t] + 2 * j + comp] += \
                            0.5 * sig_t * n[comp] * h * _single01(*vj)
    dirich = np.concatenate([
        np.flatnonzero(mesh.facet_marker == FacetMarker.INFLOW),
        np.flatnonzero(mesh.facet_marker == FacetMarker.WALL)])
    for f in dirich:
        c = mesh.facet_cells[f, 0]
        h, n = md.length[f], md.normal[f]
        for j in range(3):
            vj = md.trace(f, c, j)
            for comp in range(2):
                B[c, 6 * c + 2 * j + comp] += n[comp] * h * _single01(*vj)
    return B


def convection_constant_u(md: MeshData, u):
    """Upwind convection for a spatially constant velocity u = (ux, uy)."""
    mesh = md.mesh
    n = 3 * mesh.n_cells
    C = np.zeros((n, n))
    u = np.asarray(u, dtype=float)
    # volume: -int (u c) . grad r
    for c in range(mesh.n_cells):
        for i in range(3):
            ug = float(u @ md.grad(c, i))
            for j in range(3):
                e = [0, 0, 0]
                e[j] += 1
                C[3 * c + i, 3 * c + j] -= ug * _bary_integral(*e, md.area[c])
    # interior: int (un^+ c^+ + un^- c^-) [r]
    for f in mesh.interior_facets():
        cells = mesh.facet_cells[f]
        h = md.length[f]
        un = float(u @ md.normal[f])
        flux = ((0, max(un, 0.0)), (1, min(un, 0.0)))
        for s, sig_s in ((0, 1.0), (1, -1.0)):
            for t, coeff in flux:
                if coeff == 0.0:
                    continue
                for i in range(3):
                    vi = md.trace(f, cells[s], i)
                    for j in range(3):
                        vj = md.trace(f, cells[t], j)
                        C[3 * cells[s] + i, 3 * cells[t] + j] += \
                            sig_s * coeff * h * _pair01(*vi, *vj)
    # inflow/outflow: int (un)^+ c r
    for f in np.flatnonzero(np.isin(mesh.facet_marker,
                                    (FacetMarker.INFLOW, FacetMarker.OUTFLOW))):
        c = mesh.facet_cells[f, 0]
        pos = max(float(u @ md.normal[f]), 0.0)
        if pos == 0.0:
            continue
        for i in range(3):
            vi = md.trace(f, c, i)
            for j in range(3):
                vj = md.trace(f, c, j)
                C[3 * c + i, 3 * c + j] += pos * md.length[f] * _pair01(*vi, *vj)
    return C


def _domain_facets(md: MeshData, cells):
    """(facets interior to the cell set, boundary facets with inside side/sign)."""
    mesh = md.mesh
    inside = np.zeros(mesh.n_cells, dtype=bool)
    inside[cells] = True
    both, bd = [], []
    for f in range(mesh.n_facets):
        cp, cm = mesh.facet_cells[f]
        pin = inside[cp]
        minn = cm >= 0 and inside[cm]
        if pin and minn:
            both.append(f)
        elif pin != minn:
            side = 0 if pin else 1
            bd.append((f, side, 1.0 if pin else -1.0))
    return both, bd


def local_interior_form(md: MeshData, cells, coeff, gamma):
    """Volume stiffness over the cell set plus interior SIPG inside it."""
    A = np.zeros((3 * md.mesh.n_cells,) * 2)
    for c in cells:
        for i in range(3):
            for j in range(3):
                A[3 * c + i, 3 * c + j] += coeff * md.area[c] * float(
                    md.grad(c, i) @ md.grad(c, j))
    both, _ = _domain_facets(md, cells)
    A += sipg_interior(md, both, coeff, gamma)
    sd = (3 * np.asarray(cells)[:, None] + np.arange(3)[None, :]).reshape(-1)
    return A[np.ix_(sd, sd)]


def local_boundary_mass(md: MeshData, cells):
    _, bd = _domain_facets(md, cells)
    fids = [f for f, _, _ in bd]
    sides = [s for _, s, _ in bd]
    S = facet_mass(md, fids, sides, 1.0)
    sd = (3 * np.asarray(cells)[:, None] + np.arange(3)[None, :]).reshape(-1)
    return S[np.ix_(sd, sd)]


def local_convection_constant_u(md: MeshData, cells, u):
    """Local upwind convection for constant u: volume + interior upwind +
    one-sided (u.n)^+ over the whole local boundary; restricted."""
    mesh = md.mesh
    n = 3 * mesh.n_cells
    C = np.zeros((n, n))
    u = np.asarray(u, dtype=float)
    for c in cells:
        for i in range(3):
            ug = float(u @ md.grad(c, i))
            for j in range(3):
                e = [0, 0, 0]
                e[j] += 1
                C[3 * c + i, 3 * c + j] -= ug * _bary_integral(*e, md.area[c])
    both, bd = _domain_facets(md, cells)
    for f in both:
        fcells = mesh.facet_cells[f]
        h = md.length[f]
        un = float(u @ md.normal[f])
        flux = ((0, max(un, 0.0)), (1, min(un, 0.0)))
        for s, sig_s in ((0, 1.0), (1, -1.0)):
            for t, coeff in flux:
                if coeff == 0.0:
                    continue
                for i in range(3):
                    vi = md.trace(f, fcells[s], i)
                    for j in range(3):
                        vj = md.trace(f, fcells[t], j)
                        C[3 * fcells[s] + i, 3 * fcells[t] + j] += \
                            sig_s * coeff * h * _pair01(*vi, *vj)
    for f, side, sgn in bd:
        c = mesh.facet_cells[f, side]
        pos = max(float(u @ (sgn * md.normal[f])), 0.0)
        if pos == 0.0:
            continue
        for i in range(3):
            vi = md.trace(f, c, i)
            for j in range(3):
                vj = md.trace(f, c, j)
                C[3 * c + i, 3 * c + j] += pos * md.length[f] * _pair01(*vi, *vj)
    sd = (3 * np.asarray(cells)[:, None] + np.arange(3)[None, :]).reshape(-1)
    return C[np.ix_(sd, sd)]


def local_stokes_b(md: MeshData, cells):
    """Local divergence coupling: masked volume term, local interior average
    facets, one-sided terms over the whole local boundary; restricted to
    (local pressure, local velocity) dofs."""
    mesh = md.mesh
    B = np.zeros((mesh.n_cells, 6 * mesh.n_cells))
    for c in cells:
        for j in range(3):
            g = md.grad(c, j)
            for comp in range(2):
                B[c, 6 * c + 2 * j + comp] -= md.area[c] * g[comp]
    both, bd = _domain_facets(md, cells)
    for f in both:
        fcells = mesh.facet_cells[f]
        h, nrm = md.length[f], md.normal[f]
        for ps in range(2):
            for t, sig_t in ((0, 1.0), (1, -1.0)):
                for j in range(3):
                    vj = md.trace(f, fcells[t], j)
                    for comp in range(2):
                        B[fcells[ps], 6 * fcells[t] + 2 * j + comp] += \
                            0.5 * sig_t * nrm[comp] * h * _single01(*vj)
    for f, side, sgn in bd:
        c = mesh.facet_cells[f, side]
        h, nrm = md.length[f], sgn * md.normal[f]
        for j in range(3):
            vj = md.trace(f, c, j)
            for comp in range(2):
                B[c, 6 * c + 2 * j + comp] += nrm[comp] * h * _single01(*vj)
    cells = np.asarray(cells)
    vd = (6 * cells[:, None] + np.arange(6)[None, :]).reshape(-1)
    return B[np.ix_(cells, vd)]


def local_diffusion_with_bc(md: MeshData, cells, D, gamma_c,
                            dirichlet_fids, robin_fids, alpha):
    _, bd = _domain_facets(md, cells)
    lookup = {f: s for f, s, _ in bd}
    A = np.zeros((3 * md.mesh.n_cells,) * 2)
    sd = (3 * np.asarray(cells)[:, None] + np.arange(3)[None, :]).reshape(-1)
    Aloc = local_interior_form(md, cells, D, gamma_c)
    A[np.ix_(sd, sd)] = Aloc
    if len(dirichlet_fids):
        A += sipg_onesided(md, dirichlet_fids, [lookup[f] for f in dirichlet_fids],
                           D, gamma_c)
    if len(robin_fids) and alpha != 0.0:
        sides = [lookup[f] for f in robin_fids]
        A += facet_mass(md, robin_fids, sides, alpha)
    return A[np.ix_(sd, sd)]


# --------------------------------------------------------------------------
# the per-facet loops that batched code replaced, on the package's own
# geometry: the references the batched versions are checked against
# --------------------------------------------------------------------------

def trace_matrix(fg, f, side, t):
    """(nq, 3) values of the side cell's P1 basis along facet f."""
    T = np.zeros((len(t), 3))
    la, lb = fg.local_nodes[f, side]
    T[:, la] = 1.0 - t
    T[:, lb] = t
    return T


def facet_points_xy(mesh, f, t):
    a = mesh.nodes[mesh.facets[f, 0]]
    b = mesh.nodes[mesh.facets[f, 1]]
    return a[None, :] * (1.0 - t)[:, None] + b[None, :] * t[:, None]


def local_nodes(mesh):
    """FacetGeometry.local_nodes, one facet side at a time."""
    local = np.full((mesh.n_facets, 2, 2), -1, dtype=np.int64)
    for f, (a, b) in enumerate(mesh.facets):
        for side in range(2):
            c = mesh.facet_cells[f, side]
            if c < 0:
                continue
            cell = mesh.cells[c]
            local[f, side, 0] = int(np.flatnonzero(cell == a)[0])
            local[f, side, 1] = int(np.flatnonzero(cell == b)[0])
    return local


def flow_rhs(dz, mu, gamma_u, data):
    """(Fu, Fp) of `assemble_flow`, one inflow facet at a time: the Nitsche
    momentum data terms and the continuity data  ∫ (g·n) q."""
    mesh, cg, fg, quad = dz.mesh, dz.cell_geom, dz.facet_geom, dz.quad
    w, t = quad.facet_weights, quad.facet_points
    Fu = np.zeros(dz.dofs.n_velocity)
    Fp = np.zeros(dz.dofs.n_pressure)
    for f in np.flatnonzero(mesh.facet_marker == FacetMarker.INFLOW):
        c = mesh.facet_cells[f, 0]
        length = fg.lengths[f]
        n = fg.normals[f]
        Tr = trace_matrix(fg, f, 0, t)
        dn = cg.grads[c] @ n
        g = data(facet_points_xy(mesh, f, t))  # (nq,2)
        for comp in range(2):
            gi = g[:, comp]
            vals = length * (gamma_u * mu / length * (Tr * (w * gi)[:, None]).sum(axis=0)
                             - mu * dn * np.dot(w, gi))
            Fu[6 * c + 2 * np.arange(3) + comp] += vals
        Fp[c] += length * np.dot(w, g @ n)
    return Fu, Fp


# --------------------------------------------------------------------------
# the upwind convection as assembled before its fixed pattern: per-call
# index arrays, 5-operand einsums, COO to CSR and a Python loop over the
# inflow load (the equivalence reference of `assemble_convection`)
# --------------------------------------------------------------------------

def assemble_convection(dz, u_h, c_in):
    """(C, F) of the upwind convection, assembled entry by entry."""
    mesh = dz.mesh
    F = np.zeros(dz.dofs.n_concentration)
    data = c_in if callable(c_in) else (lambda x: np.full(len(x), float(c_in)))
    C = _assemble_convection(dz, u_h, mesh.interior_facets(),
                             np.flatnonzero(mesh.facet_marker == FacetMarker.INFLOW),
                             np.flatnonzero(mesh.facet_marker == FacetMarker.OUTFLOW),
                             data, F)
    return C, F


def _assemble_convection(dz, u_h, interior, inflow_ids, outflow_ids, c_in, F):
    """Conservative upwind convection.

    C(c, r) = -sum_K ∫ (u c)·grad r
              + sum_{E0} ∫ ((u+·n)^+ c+ + (u-·n)^- c-) [r]
              + sum_{E_out ∪ E_in} ∫ (u·n)^+ c r,
    with the inflow data entering the load as  -∫ (u·n)^- c_in r.
    """
    mesh, dofs = dz.mesh, dz.dofs
    cg, fg = dz.cell_geom, dz.facet_geom
    U = u_h.reshape(mesh.n_cells, 3, 2)
    rows, cols, vals = [], [], []

    # volume: -∫ (u c)·grad r, trial c = phi_j, test r = phi_i
    quadc = quadrature(DEFAULT_CELL_ORDER)
    phis = p1_values(quadc.cell_points)  # (nq,3)
    uq = np.einsum("ckd,qk->cqd", U, phis)  # (nc,nq,2)
    ug = np.einsum("cqd,cid->cqi", uq, cg.grads)  # u·grad phi_i
    E = -2.0 * cg.areas[:, None, None] * np.einsum("q,cqi,qj->cij", quadc.cell_weights, ug, phis)
    base = 3 * np.arange(mesh.n_cells)
    r = np.broadcast_to(base[:, None, None] + np.arange(3)[None, :, None], E.shape)
    c = np.broadcast_to(base[:, None, None] + np.arange(3)[None, None, :], E.shape)
    rows.append(r.ravel()); cols.append(c.ravel()); vals.append(E.ravel())

    w = dz.quad.facet_weights
    if len(interior):
        cells = mesh.facet_cells[interior]
        lens = fg.lengths[interior]
        normals = fg.normals[interior]
        sigma = np.array([1.0, -1.0])
        Tr = np.stack([_traces(fg, dz.quad, interior, 0), _traces(fg, dz.quad, interior, 1)],
                      axis=1)
        un = np.einsum("fskd,fsqk,fd->fsq", U[cells], Tr, normals)  # (nF,2,nq)
        coeff = np.empty_like(un)
        coeff[:, 0] = np.maximum(un[:, 0], 0.0)   # plus side: positive part
        coeff[:, 1] = np.minimum(un[:, 1], 0.0)   # minus side: negative part
        E = lens[:, None, None, None, None] * np.einsum(
            "s,q,fsqi,ftq,ftqj->fsitj", sigma, w, Tr, coeff, Tr)
        base = 3 * cells
        r = np.broadcast_to(base[:, :, None, None, None] + np.arange(3)[None, None, :, None, None], E.shape)
        c = np.broadcast_to(base[:, None, None, :, None] + np.arange(3)[None, None, None, None, :], E.shape)
        rows.append(r.ravel()); cols.append(c.ravel()); vals.append(E.ravel())

    for fids in (outflow_ids, inflow_ids):
        if not len(fids):
            continue
        cells = mesh.facet_cells[fids, 0]
        lens = fg.lengths[fids]
        normals = fg.normals[fids]
        Tr = _traces(fg, dz.quad, fids, np.zeros(len(fids), dtype=int))
        un = np.einsum("fkd,fqk,fd->fq", U[cells], Tr, normals)
        pos = np.maximum(un, 0.0)
        E = lens[:, None, None] * np.einsum("q,fqi,fq,fqj->fij", w, Tr, pos, Tr)
        base = 3 * cells
        r = np.broadcast_to(base[:, None, None] + np.arange(3)[None, :, None], E.shape)
        c = np.broadcast_to(base[:, None, None] + np.arange(3)[None, None, :], E.shape)
        rows.append(r.ravel()); cols.append(c.ravel()); vals.append(E.ravel())

    # inflow load: -∫ (u·n)^- c_in r
    t = dz.quad.facet_points
    for f in inflow_ids:
        cell = mesh.facet_cells[f, 0]
        Tr = trace_matrix(fg, f, 0, t)
        un = (U[cell].T @ Tr.T).T @ fg.normals[f]  # (nq,)
        neg = np.minimum(un, 0.0)
        g = c_in(facet_points_xy(mesh, f, t))
        F[3 * cell: 3 * cell + 3] += -fg.lengths[f] * (Tr * (w * neg * g)[:, None]).sum(axis=0)

    n = dofs.n_concentration
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


# --------------------------------------------------------------------------
# local operators and snapshot loads assembled at global size and then
# restricted to the domain's dofs: the path that per-domain assembly
# replaced, kept to show that the two agree bit for bit.  The functions take
# (and ignore) the `interior` form of the local path, so that they can stand
# in for it in a basis build.
# --------------------------------------------------------------------------

def restrict(mat, rows, cols):
    return mat.tocsr()[rows, :][:, cols]


def _sd(dom):
    return dom.scalar_dofs()


def _masked_interior_form(dz, dom, coeff, gamma):
    """Volume blocks of every cell, zero outside the domain, plus SIPG over
    the domain's interior facets; full size."""
    n = dz.dofs.n_concentration
    mask = np.zeros(dz.mesh.n_cells, dtype=bool)
    mask[dom.cells] = True
    areas = np.where(mask, dz.cell_geom.areas, 0.0)
    g = dz.cell_geom.grads
    blocks = coeff * areas[:, None, None] * np.einsum("cik,cjk->cij", g, g)
    entries = [asm._csr_entries(asm._blocks_to_csr(blocks, n)),
               asm.sipg_interior(dz, dom.interior_facets, coeff, gamma)]
    return asm._merge(entries, n)


def restricted_interior_form(dz, dom, coeff, gamma):
    return restrict(_masked_interior_form(dz, dom, coeff, gamma), _sd(dom), _sd(dom))


def _full_boundary_mass(dz, dom):
    fids = dom.boundary()
    return asm._merge([asm.facet_mass_onesided(dz, fids, dom.inside_side(dz.mesh, fids), 1.0)],
                      dz.dofs.n_concentration)


def restricted_concentration_forms(dz, dom, interior):
    """(interior, restricted full-size boundary mass)."""
    return interior, restrict(_full_boundary_mass(dz, dom), _sd(dom), _sd(dom))


def restricted_velocity_forms(dz, dom, interior):
    return tuple(asm.expand_to_vector(m)
                 for m in restricted_concentration_forms(dz, dom, interior))


def masked_b(dz, interior, dirichlet, sides, cell_mask):
    """b(u, q) at full size, with the volume term masked to a cell subset."""
    mesh, dofs = dz.mesh, dz.dofs
    cg, fg, quad = dz.cell_geom, dz.facet_geom, dz.quad
    rows, cols, vals = [], [], []
    nc = mesh.n_cells
    areas = np.where(cell_mask, cg.areas, 0.0)
    vol = -areas[:, None, None] * cg.grads
    r = np.broadcast_to(np.arange(nc)[:, None, None], vol.shape)
    c = (6 * np.arange(nc)[:, None, None] + 2 * np.arange(3)[None, :, None]
         + np.arange(2)[None, None, :])
    rows.append(r.ravel()); cols.append(c.ravel()); vals.append(vol.ravel())
    w = quad.facet_weights
    if len(interior):
        cells = mesh.facet_cells[interior]
        lens = fg.lengths[interior]
        sigma = np.array([1.0, -1.0])
        Tr = np.stack([_traces(fg, quad, interior, 0), _traces(fg, quad, interior, 1)], axis=1)
        phi_int = lens[:, None, None] * np.einsum("q,fsqj->fsj", w, Tr)
        E = 0.5 * np.einsum("t,fc,ftj->ftjc", sigma, fg.normals[interior], phi_int)
        for ps in range(2):
            r = np.broadcast_to(cells[:, ps][:, None, None, None], E.shape)
            cidx = (6 * cells[:, :, None, None] + 2 * np.arange(3)[None, None, :, None]
                    + np.arange(2)[None, None, None, :])
            rows.append(r.ravel()); cols.append(cidx.ravel()); vals.append(E.ravel())
    if len(dirichlet):
        cells = mesh.facet_cells[dirichlet, sides]
        lens = fg.lengths[dirichlet]
        normals = asm.outward_normals(fg, dirichlet, sides)
        Tr = _traces(fg, quad, dirichlet, sides)
        phi_int = lens[:, None] * np.einsum("q,fqj->fj", w, Tr)
        E = np.einsum("fc,fj->fjc", normals, phi_int)
        r = np.broadcast_to(cells[:, None, None], E.shape)
        cidx = (6 * cells[:, None, None] + 2 * np.arange(3)[None, :, None]
                + np.arange(2)[None, None, :])
        rows.append(r.ravel()); cols.append(cidx.ravel()); vals.append(E.ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dofs.n_pressure, dofs.n_velocity)).tocsr()


def restricted_stokes(dz, dom, mu, gamma_u):
    bd = dom.boundary()
    sides = dom.inside_side(dz.mesh, bd)
    A_s = asm._merge([asm._csr_entries(_masked_interior_form(dz, dom, mu, gamma_u)),
                      asm.sipg_onesided(dz, bd, sides, mu, gamma_u * asm.DATA_PENALTY)],
                     dz.dofs.n_concentration)
    mask = np.zeros(dz.mesh.n_cells, dtype=bool)
    mask[dom.cells] = True
    B = masked_b(dz, dom.interior_facets, bd, sides, mask)
    sd = _sd(dom)
    vd = (6 * dom.cells[:, None] + np.arange(6)).ravel()
    return asm.expand_to_vector(restrict(A_s, sd, sd)), restrict(B, dom.cells, vd)


def pinned_stokes(A, B):
    """The saddle matrix with its first continuity row replaced by p_0 = 0,
    through LIL."""
    nv = A.shape[0]
    K = sp.bmat([[A, B.T], [B, None]], format="lil")
    K.rows[nv] = [nv]
    K.data[nv] = [1.0]
    return K.tocsc()


def restricted_local_stokes(dz, dom, mu, gamma_u, interior):
    """The LU of the pinned `restricted_stokes`; the full-size system has its
    own interior form, so `interior` is not used."""
    return splu(pinned_stokes(*restricted_stokes(dz, dom, mu, gamma_u)))


def restricted_diffusion_with_bc(dz, dom, D, gamma_c, dirichlet_fids, robin_fids,
                                 alpha, interior):
    """The operator assembled at full size, with its own interior form (so
    `interior` is not used), restricted."""
    entries = [asm._csr_entries(_masked_interior_form(dz, dom, D, gamma_c))]
    if len(dirichlet_fids):
        entries.append(asm.sipg_onesided(
            dz, dirichlet_fids, dom.inside_side(dz.mesh, dirichlet_fids), D, gamma_c))
    if len(robin_fids) and alpha != 0.0:
        entries.append(asm.facet_mass_onesided(
            dz, robin_fids, dom.inside_side(dz.mesh, robin_fids), alpha))
    sd = _sd(dom)
    return restrict(asm._merge(entries, dz.dofs.n_concentration), sd, sd)


def restricted_mass(dz, dom):
    return restrict(asm.scalar_mass(dz), _sd(dom), _sd(dom))


def restricted_upwind_convection(dz, dom, u_h):
    """The domain's convection on a plan over every cell (global numbering),
    restricted."""
    bd = dom.boundary()
    plan = asm.ConvectionPlan.build(dz, np.arange(dz.mesh.n_cells),
                                    dom.interior_facets, bd, dom.inside_side(dz.mesh, bd))
    return restrict(plan.assemble(dz, u_h), _sd(dom), _sd(dom))


def restricted_local_operators(dz, dom, variant, D, gamma_c, u_ms=None, tau=None):
    M = restricted_mass(dz, dom)
    transient = ()
    if variant == "timevelocity":
        transient = (M / tau, restricted_upwind_convection(dz, dom, u_ms))
    return restricted_interior_form(dz, dom, D, gamma_c), M, transient


def hat_traces(dz, fids):
    """(nodes, gvals): the boundary trace nodes of the facets `fids` and, in
    gvals (n_nodes, n_facets, nq), the trace of each node's hat along each
    facet, filled one facet at a time."""
    t = dz.quad.facet_points
    pairs = dz.mesh.facets[fids]
    nodes = np.unique(pairs)
    gvals = np.zeros((len(nodes), len(fids), len(t)))
    pos = {n: k for k, n in enumerate(nodes)}
    for j, (a, b) in enumerate(pairs):
        gvals[pos[a], j] = 1.0 - t
        gvals[pos[b], j] = t
    return nodes, gvals


def full_load(n, entries):
    out = np.zeros(n)
    np.add.at(out, *entries)
    return out


def hat_loads_one_by_one(dz, dom, fids, load):
    """One full-size load per hat, restricted to the domain's dofs."""
    _, gvals = hat_traces(dz, fids)
    sd = _sd(dom)
    return np.stack([full_load(dz.dofs.n_concentration, load(g))[sd] for g in gvals])


def velocity_snapshots_one_by_one(dz, dom, direction, mu, gamma_u, lu):
    """Velocity snapshots from one full-size load per hat and direction."""
    mesh = dz.mesh
    ge = dom.gamma_e
    sides = dom.inside_side(mesh, ge)
    _, gvals = hat_traces(dz, ge)
    lens = dz.facet_geom.lengths[ge]
    normals = asm.outward_normals(dz.facet_geom, ge, sides)
    local_in = np.searchsorted(dom.cells, mesh.facet_cells[ge, sides])
    areas = dz.cell_geom.areas[dom.cells]
    volume = areas.sum()
    vdofs = (6 * dom.cells[:, None] + np.arange(6)).ravel()
    gint = np.einsum("q,lfq->lf", dz.quad.facet_weights, gvals)
    rhs_cols = []
    for r in [direction] if direction is not None else [0, 1]:
        for l in range(len(gvals)):
            fs = full_load(dz.dofs.n_concentration, asm.nitsche_rhs_values(
                dz, ge, sides, mu, gamma_u * asm.DATA_PENALTY, gvals[l]))
            full = np.zeros(dz.dofs.n_velocity)
            full[2 * np.arange(dz.dofs.n_concentration) + r] = fs
            flux = float(np.sum(lens * normals[:, r] * gint[l]))
            Fp = np.zeros(len(dom.cells))
            np.add.at(Fp, local_in, lens * normals[:, r] * gint[l])
            Fp -= flux / volume * areas
            Fp[0] = 0.0
            rhs_cols.append(np.concatenate([full[vdofs], Fp]))
    return lu.solve(np.stack(rhs_cols, axis=1))[:len(vdofs)].T


# monkeypatch targets that put the restricted path in place of the local one
# in a basis build
RESTRICTED_PATH = {
    "channelms.velocity_basis.local_interior_form": restricted_interior_form,
    "channelms.velocity_basis.assemble_local_velocity_forms": restricted_velocity_forms,
    "channelms.velocity_basis.local_stokes": restricted_local_stokes,
    "channelms.velocity_basis.velocity_snapshots": velocity_snapshots_one_by_one,
    "channelms.transport_basis.local_operators": restricted_local_operators,
    "channelms.transport_basis.local_diffusion_with_bc": restricted_diffusion_with_bc,
    "channelms.transport_basis.assemble_local_concentration_forms":
        restricted_concentration_forms,
    "channelms.transport_basis.hat_loads": hat_loads_one_by_one,
}


# --------------------------------------------------------------------------
# the online stage one row at a time: per-M_u flow projection, and per-row
# fine-size convection, projection and dense solves at every step
# --------------------------------------------------------------------------

def galerkin(X, L, R):
    """The dense coarse operator L X Rᵀ as a sparse triple product."""
    return (L @ X @ R.T).toarray()


def per_row_coarse_flow(Ru, Rp, ops, grid, steady_tol):
    """Implicit Euler on the reduced saddle system, one dense solve a step;
    returns the fine-size velocity of every step taken."""
    M = galerkin(ops.M, Ru, Ru)
    A = galerkin(ops.A, Ru, Ru)
    B = galerkin(ops.B, Rp, Ru)
    Fu, Fp = Ru @ ops.Fu, Rp @ ops.Fp
    nU, nP = A.shape[0], B.shape[0]
    K = np.zeros((nU + nP, nU + nP))
    K[:nU, :nU] = M / grid.tau + A
    K[:nU, nU:] = B.T
    K[nU:, :nU] = B
    uH, coefficients = np.zeros(nU), [np.zeros(nU)]
    for _ in range(grid.n_steps):
        unew = np.linalg.solve(K, np.concatenate([Fu + M @ uH / grid.tau, Fp]))[:nU]
        coefficients.append(unew)
        if np.linalg.norm(unew - uH) <= steady_tol * max(np.linalg.norm(unew), 1e-300):
            break
        uH = unew
    return [Ru.T @ c for c in coefficients]


def per_row_coarse_transport(dz, Rc, M, A, F, velocity_at, c_in, grid, c0,
                             report_steps):
    """Reduced implicit Euler transport on one space; convection is assembled
    and projected at fine size whenever the velocity array changes."""
    from channelms.assembly import assemble_convection

    M_H = galerkin(M, Rc, Rc)
    A_H = galerkin(A, Rc, Rc)
    F_H = Rc @ F
    cH = np.linalg.solve(M_H, Rc @ (M @ c0))
    reported, cached_u = {}, object()
    for step in range(1, grid.n_steps + 1):
        u = velocity_at(step)
        if u is not cached_u:
            C, Fc = assemble_convection(dz, u, c_in)
            K = M_H / grid.tau + A_H + galerkin(C, Rc, Rc)
            Fc_H = Rc @ Fc
            cached_u = u
        cH = np.linalg.solve(K, F_H + Fc_H + M_H @ cH / grid.tau)
        if step in report_steps:
            reported[step] = Rc.T @ cH
    return reported


def per_row_sweep(cfg):
    """{(M_u, M_c): (e_u, e_c by report key)} with every row solved on its
    own, from the same fine reference and nested spaces as the harness."""
    from channelms import harness
    from channelms.coarse_solver import pressure_space
    from channelms.errors import concentration_error, velocity_error
    from channelms.fine_solver import STEADY_TOL
    from channelms.transport_basis import build_concentration_space
    from channelms.velocity_basis import build_velocity_space

    fine = harness.run_fine_phase(cfg)
    dz, grid = fine.dz, fine.grid
    Rp = pressure_space(fine.partition).R
    vs_max = build_velocity_space(dz, fine.partition, cfg.velocity_type,
                                  cfg.mu_list[-1], cfg.mu, cfg.gamma_u)
    flows, e_u = {}, {}
    for Mu in cfg.mu_list:
        fields = per_row_coarse_flow(vs_max.R[vs_max.rows(Mu)], Rp,
                                     fine.flow_ops, grid, STEADY_TOL)
        flows[Mu] = lambda step, f=fields: f[min(step, len(f) - 1)]
        e_u[Mu] = velocity_error(dz, fields[-1], fine.flow.velocity_at(grid.n_steps))
    kw = {}
    if cfg.variant == "timevelocity":
        snap_mu = cfg.snapshot_mu or cfg.mu_list[-1]
        kw = dict(u_ms=flows[snap_mu](grid.n_steps), tau=grid.tau)
    cs_max = build_concentration_space(dz, fine.partition, cfg.concentration_type,
                                       cfg.mc_list[-1], cfg.bc_kind, cfg.variant,
                                       cfg.diffusion, cfg.alpha, cfg.gamma_c, **kw)
    keys = dict(zip(fine.report, ("m10", "m20", "m30", "m40")))
    ops = fine.transport_ops
    out = {}
    for Mu in cfg.mu_list:
        velocity_at = (fine.flow.velocity_at if cfg.transport_velocity == "fine"
                       else flows[Mu])
        for Mc in cfg.mc_list:
            reported = per_row_coarse_transport(
                dz, cs_max.R[cs_max.rows(Mc)], ops.M, ops.A, ops.F, velocity_at,
                cfg.c_in, grid, fine.c0, set(fine.report))
            out[Mu, Mc] = (e_u[Mu], {
                key: concentration_error(dz, reported[m], fine.transport.reported[m])
                for m, key in keys.items()})
    return out


# ---------------------------------------------------------------------------
# mesh topology by per-element loops: the reference for channelms.mesh
# ---------------------------------------------------------------------------

def channel_by_loops(params):
    """(nodes, cells, facets, facet_cells, facet_marker, h) of
    `generate_channel(params)`, built quad by quad and edge by edge."""
    params.validate()
    L, w0 = params.length, params.half_width
    if params.target_cells is not None:
        xq = np.linspace(0.0, L, 2049)
        area = np.trapezoid(2.0 * params.halfwidth(xq), xq)
        h = float(np.sqrt(2.0 * area / params.target_cells))
    else:
        h = float(params.target_h)
    nx = max(2, round(L / h))
    ny = max(2, round(2.0 * w0 / h))
    xs = np.linspace(0.0, L, nx + 1)
    s = np.linspace(-1.0, 1.0, ny + 1)
    nodes = np.column_stack([np.repeat(xs, ny + 1),
                             (w0 + np.outer(params.halfwidth(xs), s)).ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    rng = np.random.default_rng(params.flip_seed) if params.flip_seed is not None else None
    cells = []
    for i in range(nx):
        for j in range(ny):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            flip = ((i + j) % 2 == 1) if rng is None else bool(rng.integers(2))
            if flip:
                cells.append((n00, n10, n01))
                cells.append((n10, n11, n01))
            else:
                cells.append((n00, n10, n11))
                cells.append((n00, n11, n01))
    cells = np.asarray(cells, dtype=np.int64)
    p = nodes[cells]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    neg = area2 <= 0
    cells[neg] = cells[neg][:, [0, 2, 1]]

    edge_map = {}
    for c, (a, b, d) in enumerate(cells):
        for u, v in ((a, b), (b, d), (d, a)):
            key = (u, v) if u < v else (v, u)
            edge_map.setdefault(key, []).append(c)
    facets, facet_cells = [], []
    for key in sorted(edge_map):
        owners = sorted(edge_map[key])
        if len(owners) > 2:
            raise ValueError("non-manifold facet")
        facets.append(key)
        facet_cells.append((owners[0], owners[1] if len(owners) == 2 else -1))
    facets = np.asarray(facets, dtype=np.int64)
    facet_cells = np.asarray(facet_cells, dtype=np.int64)

    marker = np.full(len(facets), int(FacetMarker.INTERIOR), dtype=np.int64)
    mids = 0.5 * (nodes[facets[:, 0]] + nodes[facets[:, 1]])
    tol = 1e-12 * max(params.length, 1.0)
    for f in np.flatnonzero(facet_cells[:, 1] < 0):
        x, y = mids[f]
        if abs(x) <= tol and abs(y - params.inlet_y0) <= params.inlet_rmax:
            marker[f] = FacetMarker.INFLOW
        elif abs(x - params.length) <= tol:
            marker[f] = FacetMarker.OUTFLOW
        else:
            marker[f] = FacetMarker.WALL
    h_eff = float(np.sqrt(2.0 * (0.5 * np.abs(area2)).max()))
    return nodes, cells, facets, facet_cells, marker, h_eff


def cell_adjacency_lists(mesh):
    adj = [[] for _ in range(mesh.n_cells)]
    for (cp, cm) in mesh.facet_cells:
        if cm >= 0:
            adj[cp].append(cm)
            adj[cm].append(cp)
    return adj


def region_grow_by_loops(mesh, n_domains, seed):
    """Seeded region growing, one cell and one neighbour at a time."""
    rng = np.random.default_rng(seed)
    centroids = mesh.cell_centroids()
    xmin, xmax = mesh.nodes[:, 0].min(), mesh.nodes[:, 0].max()
    ymin, ymax = mesh.nodes[:, 1].min(), mesh.nodes[:, 1].max()
    assign = np.full(mesh.n_cells, -1, dtype=np.int64)
    adj = cell_adjacency_lists(mesh)
    frontiers = []
    for i in range(n_domains):
        tx = (i + 0.5) / n_domains + 0.2 / n_domains * (rng.random() - 0.5)
        ty = 0.25 + 0.5 * rng.random()
        target = np.array([xmin + tx * (xmax - xmin), ymin + ty * (ymax - ymin)])
        free = np.flatnonzero(assign < 0)
        c = free[np.argmin(np.linalg.norm(centroids[free] - target, axis=1))]
        assign[c] = i
        frontiers.append([int(c)])
    remaining = mesh.n_cells - n_domains
    while remaining > 0:
        progressed = False
        for i in range(n_domains):
            new_front = []
            for c in sorted(frontiers[i]):
                for nb in sorted(adj[c]):
                    if assign[nb] < 0:
                        assign[nb] = i
                        new_front.append(nb)
                        remaining -= 1
            frontiers[i] = new_front
            progressed = progressed or bool(new_front)
        if not progressed:
            raise ValueError("region growing stalled; mesh may be disconnected")
    return assign


def components_by_dfs(cells, adj):
    """Facet-connected components of `cells`, in the order of their lowest
    cell."""
    cellset = set(int(c) for c in cells)
    seen, comps = set(), []
    for start in cells:
        start = int(start)
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            c = stack.pop()
            comp.append(c)
            for nb in adj[c]:
                if nb in cellset and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


def repair_by_loops(mesh, assign, n_domains):
    """Reattach every orphan component to its lowest neighbouring domain."""
    assign = assign.copy()
    adj = cell_adjacency_lists(mesh)
    for _ in range(n_domains):
        changed = False
        for i in range(n_domains):
            comps = components_by_dfs(np.flatnonzero(assign == i), adj)
            if len(comps) <= 1:
                continue
            comps.sort(key=len, reverse=True)
            for orphan in comps[1:]:
                targets = {int(assign[nb]) for c in orphan for nb in adj[c]
                           if assign[nb] != i}
                if not targets:
                    raise ValueError(f"domain {i} has an irreparable orphan component")
                assign[orphan] = min(targets)
                changed = True
        if not changed:
            return assign
    return assign


def slab_assignment(mesh, n_domains):
    """Structured partition before the connectivity repair."""
    cx = mesh.cell_centroids()[:, 0]
    xmin, xmax = mesh.nodes[:, 0].min(), mesh.nodes[:, 0].max()
    rel = (cx - xmin) / (xmax - xmin)
    return np.minimum((rel * n_domains).astype(np.int64), n_domains - 1)


def partition_by_loops(mesh, n_domains, mode, seed):
    """cell_to_domain of `partition_coarse(mesh, n_domains, mode, seed)`."""
    if mode == "structured":
        assign = slab_assignment(mesh, n_domains)
    else:
        assign = region_grow_by_loops(mesh, n_domains, seed)
    return repair_by_loops(mesh, assign, n_domains)
