"""Legacy VTK output: every written value reads back exactly."""

import numpy as np

from channelms.mesh import partition_coarse
from channelms.vtkio import write_vtk


def test_written_fields_read_back_exactly(small_mesh, tmp_path, rng):
    nc = small_mesh.n_cells
    c = rng.standard_normal(3 * nc) * 10.0 ** rng.integers(-300, 300, 3 * nc)
    c[:4] = [-0.0, 1 / 3, np.nextafter(1.0, 2.0), 5e-324]
    u = rng.standard_normal(6 * nc)
    p = rng.standard_normal(nc)
    part = partition_coarse(small_mesh, 4, mode="structured")
    path = tmp_path / "fields.vtk"
    write_vtk(path, small_mesh, concentration=c, velocity=u, pressure=p,
              partition=part)
    lines = path.read_text().splitlines()

    def rows(header, n, skip=0):
        k = lines.index(header) + 1 + skip
        return np.array([[float(x) for x in line.split()] for line in lines[k:k + n]])

    pts = rows(f"POINTS {3 * nc} double", 3 * nc)
    assert np.array_equal(pts[:, :2], small_mesh.nodes[small_mesh.cells].reshape(-1, 2))
    assert np.array_equal(rows(f"CELLS {nc} {4 * nc}", nc),
                          np.column_stack([np.full(nc, 3), np.arange(3 * nc).reshape(nc, 3)]))
    assert np.all(rows(f"CELL_TYPES {nc}", nc) == 5)
    got_c = rows("SCALARS concentration double 1", 3 * nc, skip=1)[:, 0]
    assert np.array_equal(got_c, c) and np.signbit(got_c[0])
    vec = rows("VECTORS velocity double", 3 * nc)
    assert np.array_equal(vec[:, :2], u.reshape(-1, 2))
    assert not pts[:, 2].any() and not vec[:, 2].any()
    assert np.array_equal(rows("SCALARS pressure double 1", nc, skip=1)[:, 0], p)
    assert np.array_equal(rows("SCALARS domain int 1", nc, skip=1)[:, 0],
                          part.cell_to_domain)
    assert lines[-1] == str(part.cell_to_domain[-1])
    assert lines.index(f"POINT_DATA {3 * nc}") < lines.index(f"CELL_DATA {nc}")
