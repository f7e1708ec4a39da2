"""Discrete DG spaces on triangle meshes.

Three fully discontinuous fine spaces share the mesh: vector P1 for velocity
(6 dofs/cell), P0 for pressure (1 dof/cell) and scalar P1 for concentration
(3 dofs/cell).  This module also carries the quadrature rules and the
geometric per-cell / per-facet quantities all assembly code consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


@dataclass(frozen=True)
class DofMaps:
    """Degree-of-freedom layouts for the three fine spaces."""

    n_cells: int

    @property
    def n_velocity(self) -> int:
        return 6 * self.n_cells

    @property
    def n_pressure(self) -> int:
        return self.n_cells

    @property
    def n_concentration(self) -> int:
        return 3 * self.n_cells


# reference triangle {(x,y): x,y >= 0, x+y <= 1}, barycentric rules
_TRI_RULES = {
    1: ([(1 / 3, 1 / 3)], [0.5]),
    2: ([(1 / 6, 1 / 6), (2 / 3, 1 / 6), (1 / 6, 2 / 3)], [1 / 6] * 3),
    3: ([(1 / 3, 1 / 3), (1 / 5, 1 / 5), (3 / 5, 1 / 5), (1 / 5, 3 / 5)],
        [-27 / 96, 25 / 96, 25 / 96, 25 / 96]),
}


def _dunavant(order: int):
    if order == 4:
        a, b = 0.445948490915965, 0.091576213509771
        wa, wb = 0.223381589678011 / 2, 0.109951743655322 / 2
        pts = [(a, a), (1 - 2 * a, a), (a, 1 - 2 * a),
               (b, b), (1 - 2 * b, b), (b, 1 - 2 * b)]
        return pts, [wa] * 3 + [wb] * 3
    if order == 5:
        a, b = 0.470142064105115, 0.101286507323456
        wa, wb = 0.132394152788506 / 2, 0.125939180544827 / 2
        pts = [(1 / 3, 1 / 3),
               (a, a), (1 - 2 * a, a), (a, 1 - 2 * a),
               (b, b), (1 - 2 * b, b), (b, 1 - 2 * b)]
        return pts, [0.225 / 2] + [wa] * 3 + [wb] * 3
    raise ValueError(f"unsupported quadrature order {order}")


@dataclass(frozen=True)
class Quadrature:
    """Cell rule on the reference triangle and facet rule on [0, 1]."""

    cell_points: np.ndarray  # (nq, 2)
    cell_weights: np.ndarray  # (nq,), sum to 1/2
    facet_points: np.ndarray  # (nqf,), parameter t in [0, 1]
    facet_weights: np.ndarray  # (nqf,), sum to 1


def quadrature(order: int) -> Quadrature:
    """Rule exact for polynomials up to `order` (cells and facets)."""
    if order not in (1, 2, 3, 4, 5):
        raise ValueError(f"unsupported quadrature order {order}")
    pts, wts = _TRI_RULES[order] if order <= 3 else _dunavant(order)
    npt = (order + 2) // 2
    gx, gw = np.polynomial.legendre.leggauss(npt)
    return Quadrature(
        cell_points=np.asarray(pts, dtype=float),
        cell_weights=np.asarray(wts, dtype=float),
        facet_points=0.5 * (gx + 1.0),
        facet_weights=0.5 * gw,
    )


def p1_values(points: np.ndarray) -> np.ndarray:
    """P1 nodal basis values at reference points, shape (nq, 3)."""
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([1.0 - x - y, x, y])


@dataclass(frozen=True)
class CellGeometry:
    """Per-cell geometric data: areas and constant P1 basis gradients."""

    areas: np.ndarray  # (nc,)
    grads: np.ndarray  # (nc, 3, 2) gradient of each nodal basis function

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "CellGeometry":
        p = mesh.nodes[mesh.cells]  # (nc, 3, 2)
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        areas = 0.5 * det
        # rows of inv(J)^T scaled: grad lambda_1 = (v2_y, -v2_x)/det etc.
        g1 = np.column_stack([v2[:, 1], -v2[:, 0]]) / det[:, None]
        g2 = np.column_stack([-v1[:, 1], v1[:, 0]]) / det[:, None]
        g0 = -(g1 + g2)
        grads = np.stack([g0, g1, g2], axis=1)
        return cls(areas=areas, grads=grads)


@dataclass(frozen=True)
class FacetGeometry:
    """Per-facet traces: lengths, normals and local node slots per side.

    local_nodes[f, side] = (slot of facet node 0, slot of facet node 1) in the
    adjacent cell on that side, or (-1, -1) for the missing side of a boundary
    facet.  Traces of cell P1 functions along the facet follow directly: node 0
    carries weight 1-t, node 1 weight t in the shared parameterization, so the
    two sides always align.
    """

    lengths: np.ndarray  # (nf,)
    normals: np.ndarray  # (nf, 2), plus -> minus
    local_nodes: np.ndarray  # (nf, 2, 2)

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "FacetGeometry":
        cells = mesh.cells[np.maximum(mesh.facet_cells, 0)]  # (nf, side, 3)
        # the slot in each side's cell of each facet end's node
        local = np.argmax(cells[:, :, None, :] == mesh.facets[:, None, :, None], axis=3)
        local = np.where(mesh.facet_cells[:, :, None] >= 0, local, -1)
        return cls(lengths=mesh.facet_lengths(), normals=mesh.facet_normals(),
                   local_nodes=local)
