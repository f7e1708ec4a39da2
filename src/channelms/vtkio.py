"""Legacy ASCII VTK output for DG fields.

Each triangle gets its own three points so discontinuous P1 fields can be
written as point data without averaging across cells; cell-wise constants
(pressure, domain markers) go out as cell data.
"""

from __future__ import annotations

import numpy as np

from .mesh import CoarsePartition, Mesh


def write_vtk(path, mesh: Mesh, concentration=None, velocity=None,
              pressure=None, partition: CoarsePartition | None = None):
    """Write an unstructured-grid VTK file with duplicated per-cell points.

    concentration: (3*nc,) scalar dofs; velocity: (6*nc,) interleaved x/y
    dofs; pressure: (nc,) cellwise constants.
    """
    nc = mesh.n_cells
    pts = mesh.nodes[mesh.cells].reshape(-1, 2)  # (3*nc, 2) duplicated
    out = ["# vtk DataFile Version 3.0\nchannelms fields\nASCII\n"
           f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(pts)} double\n",
           "".join(f"{x!r} {y!r} 0.0\n" for x, y in pts.tolist()),
           f"CELLS {nc} {4 * nc}\n",
           "".join(f"3 {c} {c + 1} {c + 2}\n" for c in range(0, 3 * nc, 3)),
           f"CELL_TYPES {nc}\n", "5\n" * nc]  # VTK_TRIANGLE
    if concentration is not None or velocity is not None:
        out.append(f"POINT_DATA {len(pts)}\n")
    if concentration is not None:
        out.append("SCALARS concentration double 1\nLOOKUP_TABLE default\n")
        out.append(_column(concentration))
    if velocity is not None:
        u = np.asarray(velocity, dtype=float).reshape(-1, 2)
        out.append("VECTORS velocity double\n")
        out.append("".join(f"{ux!r} {uy!r} 0.0\n" for ux, uy in u.tolist()))
    if pressure is not None or partition is not None:
        out.append(f"CELL_DATA {nc}\n")
    if pressure is not None:
        out.append("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        out.append(_column(pressure))
    if partition is not None:
        out.append("SCALARS domain int 1\nLOOKUP_TABLE default\n")
        out.append("".join(f"{int(v)}\n" for v in partition.cell_to_domain.tolist()))
    with open(path, "w") as fh:
        fh.write("".join(out))


def _column(values) -> str:
    """One repr-exact float per line."""
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=float).tolist())
