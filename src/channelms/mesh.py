"""Thin-channel triangulations, boundary facet markers and coarse partitions.

The mesher maps a structured quad grid onto the channel parameterization and
splits each quad into two triangles; an optional seeded diagonal flip gives an
unstructured flavor.  Facets are classified as interior / inflow / outflow /
wall, and the coarse partition assigns every fine cell to one connected local
domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class FacetMarker(IntEnum):
    INTERIOR = 0
    INFLOW = 1
    OUTFLOW = 2
    WALL = 3


_MARKER_NAMES = {m: m.name.lower() for m in FacetMarker}
_MARKER_FROM_NAME = {v: k for k, v in _MARKER_NAMES.items()}


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of a thin channel along the x axis.

    The channel occupies ``half_width - hw(x) <= y - half_width <= hw(x)``
    shifted so the straight channel is ``0 <= y <= 2*half_width``.  The
    half-width profile is either constant (``straight``) or
    ``half_width + amplitude*sin(2*pi*x/wavelength)`` (``sinusoidal``).
    """

    length: float
    half_width: float
    profile: str = "straight"
    amplitude: float = 0.0
    wavelength: float = 0.25
    target_h: float | None = None
    target_cells: int | None = None
    inlet_center: float | None = None  # y coordinate of inlet disk center
    inlet_radius: float | None = None
    flip_seed: int | None = None  # randomized diagonal flips when set

    def halfwidth(self, x):
        if self.profile == "straight":
            return np.full_like(np.asarray(x, dtype=float), self.half_width)
        if self.profile == "sinusoidal":
            x = np.asarray(x, dtype=float)
            return self.half_width + self.amplitude * np.sin(2.0 * np.pi * x / self.wavelength)
        raise ValueError(f"unknown profile {self.profile!r}")

    def validate(self):
        if self.length <= 0 or self.half_width <= 0:
            raise ValueError("length and half_width must be positive")
        if self.profile == "sinusoidal":
            if not 0 <= self.amplitude < self.half_width:
                raise ValueError("amplitude must lie in [0, half_width); channel would pinch closed")
            if self.wavelength <= 0:
                raise ValueError("wavelength must be positive")
        max_width = 2.0 * (self.half_width + (self.amplitude if self.profile == "sinusoidal" else 0.0))
        if self.length < 5.0 * max_width:
            raise ValueError("thin-domain regime requires length >= 5 x max channel width")
        if self.target_h is None and self.target_cells is None:
            raise ValueError("one of target_h / target_cells is required")

    @property
    def inlet_y0(self) -> float:
        return self.half_width if self.inlet_center is None else self.inlet_center

    @property
    def inlet_rmax(self) -> float:
        return self.half_width if self.inlet_radius is None else self.inlet_radius


@dataclass
class Mesh:
    """Triangle mesh with facet adjacency and boundary markers.

    facet_cells[f] = (plus cell, minus cell); the minus cell is -1 on the
    boundary.  The plus cell is always the lower cell index.
    """

    nodes: np.ndarray  # (nn, 2)
    cells: np.ndarray  # (nc, 3) counterclockwise
    facets: np.ndarray  # (nf, 2) node pairs, sorted
    facet_cells: np.ndarray  # (nf, 2)
    facet_marker: np.ndarray  # (nf,) FacetMarker values
    h: float

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def cell_areas(self) -> np.ndarray:
        p = self.nodes[self.cells]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def cell_centroids(self) -> np.ndarray:
        return self.nodes[self.cells].mean(axis=1)

    def facet_lengths(self) -> np.ndarray:
        d = self.nodes[self.facets[:, 1]] - self.nodes[self.facets[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def facet_normals(self) -> np.ndarray:
        """Unit normals oriented from the plus cell to the minus cell
        (outward on boundary facets)."""
        a = self.nodes[self.facets[:, 0]]
        b = self.nodes[self.facets[:, 1]]
        t = b - a
        n = np.column_stack([t[:, 1], -t[:, 0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        mid = 0.5 * (a + b)
        cplus = self.cell_centroids()[self.facet_cells[:, 0]]
        flip = np.einsum("ij,ij->i", n, mid - cplus) < 0
        n[flip] *= -1.0
        return n

    def boundary_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_marker != FacetMarker.INTERIOR)

    def interior_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_marker == FacetMarker.INTERIOR)

    def validate(self):
        areas = self.cell_areas()
        if not (areas > 0).all():
            raise ValueError("found cells with non-positive area (orientation broken)")
        on_boundary = self.facet_cells[:, 1] < 0
        interior = self.facet_marker == FacetMarker.INTERIOR
        if (on_boundary == interior).any():
            raise ValueError("facet markers do not partition the boundary")


def _cell_adjacency(mesh: Mesh) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(mesh.n_cells)]
    for (cp, cm) in mesh.facet_cells:
        if cm >= 0:
            adj[cp].append(cm)
            adj[cm].append(cp)
    return adj


@dataclass
class CoarsePartition:
    """Assignment of fine cells to coarse local domains."""

    n_domains: int
    cell_to_domain: np.ndarray  # (nc,)
    mode: str  # "structured" | "unstructured"

    def domain_cells(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.cell_to_domain == i)

    def boundary_facets(self, mesh: Mesh, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Split the local boundary of domain i into (gamma_E, gamma_w).

        gamma_E collects inter-domain facets plus global inflow/outflow facets
        on the domain boundary; gamma_w the wall facets.
        """
        d = self.cell_to_domain
        cp, cm = mesh.facet_cells[:, 0], mesh.facet_cells[:, 1]
        in_p = d[cp] == i
        in_m = (cm >= 0) & (d[np.maximum(cm, 0)] == i)
        touches = in_p | in_m
        crossing = touches & (cm >= 0) & (in_p != in_m)
        on_global = touches & (cm < 0)
        marker = mesh.facet_marker
        gamma_e = np.flatnonzero(crossing | (on_global & np.isin(marker, (FacetMarker.INFLOW, FacetMarker.OUTFLOW))))
        gamma_w = np.flatnonzero(on_global & (marker == FacetMarker.WALL))
        return gamma_e, gamma_w


def generate_channel(params: ChannelParams) -> Mesh:
    """Generate a triangulated thin channel with marked boundary facets."""
    params.validate()
    L, w0 = params.length, params.half_width

    if params.target_cells is not None:
        xq = np.linspace(0.0, L, 2049)
        area = np.trapezoid(2.0 * params.halfwidth(xq), xq)
        h = float(np.sqrt(2.0 * area / params.target_cells))
    else:
        h = float(params.target_h)
    if params.profile == "sinusoidal" and h > params.wavelength / 4.0:
        raise ValueError("target h too coarse to resolve the wall wavelength")

    nx = max(2, round(L / h))
    ny = max(2, round(2.0 * w0 / h))
    xs = np.linspace(0.0, L, nx + 1)
    hw = params.halfwidth(xs)
    if (hw <= 0).any():
        raise ValueError("degenerate profile: channel pinches closed")

    # node grid: column i spans [w0 - hw(x), w0 + hw(x)]
    s = np.linspace(-1.0, 1.0, ny + 1)
    X = np.repeat(xs, ny + 1)
    Y = (w0 + np.outer(hw, s)).ravel()
    nodes = np.column_stack([X, Y])

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

    # orientation fix (mapped quads can invert locally for strong profiles)
    p = nodes[cells]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    neg = area2 <= 0
    cells[neg] = cells[neg][:, [0, 2, 1]]

    facets, facet_cells = _extract_facets(cells)
    marker = _classify_boundary(nodes, facets, facet_cells, params)

    areas = 0.5 * np.abs(area2)
    h_eff = float(np.sqrt(2.0 * areas.max()))
    mesh = Mesh(nodes, cells, facets, facet_cells, marker, h_eff)
    mesh.validate()
    return mesh


def _extract_facets(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edge_map: dict[tuple[int, int], list[int]] = {}
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
    return np.asarray(facets, dtype=np.int64), np.asarray(facet_cells, dtype=np.int64)


def _classify_boundary(nodes, facets, facet_cells, params: ChannelParams) -> np.ndarray:
    marker = np.full(len(facets), int(FacetMarker.INTERIOR), dtype=np.int64)
    mids = 0.5 * (nodes[facets[:, 0]] + nodes[facets[:, 1]])
    tol = 1e-12 * max(params.length, 1.0)
    on_boundary = facet_cells[:, 1] < 0
    for f in np.flatnonzero(on_boundary):
        x, y = mids[f]
        if abs(x) <= tol and abs(y - params.inlet_y0) <= params.inlet_rmax:
            marker[f] = FacetMarker.INFLOW
        elif abs(x - params.length) <= tol:
            marker[f] = FacetMarker.OUTFLOW
        else:
            marker[f] = FacetMarker.WALL
    return marker


def partition_coarse(mesh: Mesh, n_domains: int, mode: str = "structured",
                     seed: int = 0) -> CoarsePartition:
    """Partition the fine mesh into coarse local domains.

    Structured mode yields vertical slabs of equal x extent; unstructured mode
    grows domains from seeded centroids, producing rough interfaces.
    """
    if n_domains < 1 or (n_domains > 1 and n_domains > mesh.n_cells // 20):
        raise ValueError("n_domains must be in [1, n_cells/20]")
    cx = mesh.cell_centroids()[:, 0]
    xmin, xmax = mesh.nodes[:, 0].min(), mesh.nodes[:, 0].max()

    if mode == "structured":
        rel = (cx - xmin) / (xmax - xmin)
        assign = np.minimum((rel * n_domains).astype(np.int64), n_domains - 1)
    elif mode == "unstructured":
        assign = _region_grow(mesh, n_domains, seed)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    assign = _repair_connectivity(mesh, assign, n_domains)
    part = CoarsePartition(n_domains, assign, mode)
    if len(np.unique(assign)) != n_domains:
        raise ValueError("partition produced an empty domain")
    return part


def _region_grow(mesh: Mesh, n_domains: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centroids = mesh.cell_centroids()
    xmin, xmax = mesh.nodes[:, 0].min(), mesh.nodes[:, 0].max()
    ymin, ymax = mesh.nodes[:, 1].min(), mesh.nodes[:, 1].max()
    assign = np.full(mesh.n_cells, -1, dtype=np.int64)
    adj = _cell_adjacency(mesh)

    frontiers: list[list[int]] = []
    for i in range(n_domains):
        # jittered slab centers keep the domains spread along the channel
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


def _repair_connectivity(mesh: Mesh, assign: np.ndarray, n_domains: int) -> np.ndarray:
    """Reattach orphan components: every domain must be facet-connected."""
    assign = assign.copy()
    adj = _cell_adjacency(mesh)
    for _ in range(n_domains):  # a reassignment can orphan a neighbor; iterate
        changed = False
        for i in range(n_domains):
            comps = _components(np.flatnonzero(assign == i), adj)
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


def _components(cells: np.ndarray, adj) -> list[list[int]]:
    cellset = set(int(c) for c in cells)
    seen: set[int] = set()
    comps = []
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


FORMAT_HEADER = "channelms-mesh 1"


def write_mesh(path, mesh: Mesh, partition: CoarsePartition | None = None):
    """Write the line-oriented text mesh format (exact round trip)."""
    dom = partition.cell_to_domain if partition is not None else np.full(mesh.n_cells, -1)
    with open(path, "w") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"h {float(mesh.h)!r}\n")
        fh.write(f"nodes {len(mesh.nodes)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"cells {mesh.n_cells}\n")
        for (a, b, c), d in zip(mesh.cells, dom):
            fh.write(f"{a} {b} {c} {d}\n")
        fh.write(f"facets {mesh.n_facets}\n")
        for (a, b), m in zip(mesh.facets, mesh.facet_marker):
            fh.write(f"{a} {b} {_MARKER_NAMES[FacetMarker(m)]}\n")


def read_mesh(path) -> tuple[Mesh, CoarsePartition | None]:
    with open(path) as fh:
        tokens = fh.read().split("\n")
    it = iter(t for t in tokens if t.strip())
    if next(it).strip() != FORMAT_HEADER:
        raise ValueError("not a channelms mesh file")
    h = float(next(it).split()[1])
    nn = int(next(it).split()[1])
    nodes = np.array([[float(v) for v in next(it).split()] for _ in range(nn)])
    nc = int(next(it).split()[1])
    rows = [next(it).split() for _ in range(nc)]
    cells = np.array([[int(v) for v in r[:3]] for r in rows], dtype=np.int64)
    dom = np.array([int(r[3]) for r in rows], dtype=np.int64)
    nf = int(next(it).split()[1])
    facets, markers = [], []
    for _ in range(nf):
        a, b, name = next(it).split()
        facets.append((int(a), int(b)))
        markers.append(int(_MARKER_FROM_NAME[name]))
    facets_arr, facet_cells = _extract_facets(cells)
    order = {tuple(f): k for k, f in enumerate(facets_arr.tolist())}
    marker = np.empty(nf, dtype=np.int64)
    for (a, b), m in zip(facets, markers):
        marker[order[(a, b)]] = m
    mesh = Mesh(nodes, cells, facets_arr, facet_cells, marker, h)
    mesh.validate()
    part = None
    if (dom >= 0).all():
        part = CoarsePartition(int(dom.max()) + 1, dom, "unknown")
    return mesh, part
