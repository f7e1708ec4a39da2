"""Shared helpers for solver verification studies."""

from dataclasses import replace

import numpy as np
from scipy.sparse.linalg import spsolve

from channelms.assembly import Discretization, assemble_transport
from channelms.dgspace import p1_values, quadrature
from channelms.mesh import ChannelParams, FacetMarker, generate_channel
from channelms.spectral import ModeBlock, NestedSpace

WIDTH = 0.2  # manufactured-solution channel width (length 1.0)

# acceptance verdict lines, echoed in the terminal summary by conftest
CRITERION_LINES = []


def assert_rows_close(got, want, rtol=1e-12):
    """Two sparse projection matrices agree entry-wise to rtol of the largest."""
    got, want = got.toarray(), want.toarray()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def closed_copy(mesh):
    """The Discretization of a copy of mesh with every boundary facet a wall.
    The copy has its own facet markers and its own Discretization, so that
    closing it leaves the shared fixtures and their caches alone."""
    mesh = replace(mesh, facet_marker=mesh.facet_marker.copy())
    mesh.facet_marker[mesh.facet_marker != FacetMarker.INTERIOR] = FacetMarker.WALL
    return Discretization.from_mesh(mesh)


def identity_space(name, partition, per_cell):
    """One identity block per domain on the dofs of its cells (per_cell
    dofs each): R is a row permutation of the identity."""
    blocks = []
    for d in range(partition.n_domains):
        cells = partition.domain_cells(d)
        dofs = (per_cell * cells[:, None] + np.arange(per_cell)).ravel()
        blocks.append(ModeBlock(domain=d, label="identity",
                                eigenvalues=np.zeros(0),
                                vectors=np.eye(len(dofs)), dofs=dofs))
    return NestedSpace.stack(name, blocks,
                             per_cell * len(partition.cell_to_domain))


def zero_mode(space, k):
    """The space with mode k of its first block zeroed: every size that keeps
    that mode is exactly singular (LU leaves a zero row zero, so its pivot is
    exactly 0), and the smaller sizes are untouched."""
    b = space.blocks[0]
    vectors = b.vectors.copy()
    vectors[k] = 0.0
    blocks = [replace(b, vectors=vectors), *space.blocks[1:]]
    return NestedSpace.stack(space.name, blocks, space.R.shape[1],
                             space.extra_dof)


def _c_exact(x):
    return np.sin(np.pi * x[:, 1] / WIDTH)


def manufactured_transport_error(target_h, D=0.1, gamma_c=8.0):
    """Steady diffusion with weak Dirichlet walls against c = sin(pi y / W).

    Walls carry c = 0, the inlet carries the exact trace, the outlet is
    natural (the exact solution has zero normal derivative there); the source
    is D (pi/W)^2 sin(pi y / W).  Returns the quadrature L2 error.
    """
    params = ChannelParams(length=1.0, half_width=WIDTH / 2, target_h=target_h)
    mesh = generate_channel(params)
    dz = Discretization.from_mesh(mesh)
    k2 = D * (np.pi / WIDTH) ** 2
    ops = assemble_transport(dz, D=D, alpha=0.0, gamma_c=gamma_c,
                             wall_bc="dbc", wall_data=0.0, c_in=_c_exact,
                             u_h=None, source=lambda x: k2 * _c_exact(x))
    c_h = spsolve(ops.A.tocsr(), ops.F)
    return l2_error_vs_exact(dz, c_h, _c_exact), mesh.n_cells


def l2_error_vs_exact(dz, c_h, exact):
    """Quadrature L2 norm of c_h - exact over the mesh (order-5 cell rule)."""
    q = quadrature(5)
    vals = p1_values(q.cell_points)  # (nq, 3)
    p = dz.mesh.nodes[dz.mesh.cells]
    xq = np.einsum("qk,ckd->cqd", vals, p)
    ch = np.einsum("qk,ck->cq", vals, c_h.reshape(-1, 3))
    ex = np.stack([exact(xq[c]) for c in range(dz.mesh.n_cells)])
    err2 = 2.0 * dz.cell_geom.areas @ ((ch - ex) ** 2 @ q.cell_weights)
    return float(np.sqrt(err2))


def trend_ok(errors, slack=1.10):
    """Non-increasing within multiplicative slack between consecutive entries."""
    e = [x for x in errors if np.isfinite(x)]
    if len(e) != len(list(errors)):
        return False
    return all(b <= slack * a for a, b in zip(e, e[1:]))


def final_errors(report, Mu=None):
    """Final-time concentration errors per Mc from an ErrorReport, ordered."""
    out = {}
    for row in report.rows:
        if "error" in row:
            return None
        if Mu is not None and row["Mu"] != Mu:
            continue
        out[row["Mc"]] = row["e_c"].get("m40", float("nan"))
    return [out[m] for m in sorted(out)]


def velocity_errors(report):
    out = {}
    for row in report.rows:
        out[row["Mu"]] = row.get("e_u", float("nan"))
    return [out[m] for m in sorted(out)]
