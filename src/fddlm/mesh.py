"""Quadrilateral meshes for the background box and the immersed region.

Supported domain kinds: axis-aligned rectangles (background box and
immersed square patches), an L-shaped patch (square minus its upper-right
quarter), a disk meshed by a 5-block transfinite layout (central square
plus four boundary-fitted blocks), and a flower obtained from the disk
mesh by scaling each node's polar radius by 1 + amplitude*cos(lobes*theta).

``build_mesh(spec, level)`` applies ``level`` uniform refinements to the
level-0 mesh, so cell children are nested (children of cell c are
4c..4c+3) and h halves per level. New boundary-edge midpoints on curved
domains are projected onto the exact boundary curve.
"""

from dataclasses import dataclass

import numpy as np

from .element import invert_bilinear

__all__ = [
    "DomainSpec",
    "QuadMesh",
    "build_mesh",
    "refine_uniform",
    "CellLocator",
]

_KINDS = ("rectangle", "square_patch", "lshape", "disk", "flower")


@dataclass(frozen=True)
class DomainSpec:
    """Geometry description plus the level-0 resolution.

    Parameters
    ----------
    kind : str
        One of rectangle, square_patch, lshape, disk, flower.
    bounds : tuple, optional
        (x0, x1, y0, y1) for rectangle-like kinds; for lshape this is the
        bounding square and the removed part is its upper-right quarter.
    center, radius : disk and flower center/base radius.
    amplitude, lobes : flower boundary r(theta) = radius*(1 + amplitude*cos(lobes*theta)).
    base_cells : int
        Cells per side (rectangle/lshape) or per block edge (disk/flower)
        at level 0. lshape requires an even value.
    """

    kind: str
    bounds: tuple = None
    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    amplitude: float = 0.1
    lobes: int = 5
    base_cells: int = 4


class QuadMesh:
    """Conforming straight-edged quad mesh.

    Attributes
    ----------
    nodes : (N, 2) float array
    cells : (M, 4) int array, counterclockwise corner indices
    edges : (E, 2) int array of unique edges as sorted node pairs,
        ordered lexicographically (deterministic, mesh-order independent)
    cell_to_edge : (M, 4) int array; local edge k joins corners k, k+1
    boundary_nodes, boundary_edges : derived from edge incidence
        (an edge is on the boundary iff it has exactly one incident cell)
    projector : callable or None
        Maps points onto the exact boundary curve; used during refinement.
    """

    def __init__(self, nodes, cells, projector=None, spec=None, level=0):
        self.nodes = np.asarray(nodes, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.projector = projector
        self.spec = spec
        self.level = level
        self._build_edges()
        self._h = None

    def _build_edges(self):
        c = self.cells
        pairs = np.concatenate(
            [c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 3]], c[:, [3, 0]]], axis=0
        )
        pairs = np.sort(pairs, axis=1)
        self.edges, inv, counts = np.unique(
            pairs, axis=0, return_inverse=True, return_counts=True
        )
        m = self.num_cells
        self.cell_to_edge = inv.reshape(4, m).T
        self.boundary_edge_mask = counts == 1
        self.boundary_edges = self.edges[self.boundary_edge_mask]
        self.boundary_nodes = np.unique(self.boundary_edges)

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def h(self):
        """Mesh size: maximum cell diagonal."""
        if self._h is None:
            p = self.nodes[self.cells]
            d1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
            d2 = np.linalg.norm(p[:, 3] - p[:, 1], axis=1)
            self._h = float(np.maximum(d1, d2).max())
        return self._h

    def cell_polygon(self, i):
        """Corner coordinates of cell i as a (4, 2) array."""
        return self.nodes[self.cells[i]]

    def cell_areas(self):
        """Signed areas of all cells (positive for valid meshes)."""
        # relative to each cell's first vertex, so that small cells far
        # from the origin keep their digits
        p = self.nodes[self.cells]
        p = p - p[:, :1]
        x = p[:, :, 0]
        y = p[:, :, 1]
        xn = np.roll(x, -1, axis=1)
        yn = np.roll(y, -1, axis=1)
        return 0.5 * np.sum(x * yn - xn * y, axis=1)

    def __repr__(self):
        kind = self.spec.kind if self.spec else "custom"
        return (
            f"QuadMesh({kind}, level={self.level}, cells={self.num_cells}, "
            f"nodes={self.num_nodes}, h={self.h:.4g})"
        )


def build_mesh(spec, level=0):
    """Build the mesh of a DomainSpec at the given refinement level."""
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown domain kind {spec.kind!r}; valid: {_KINDS}")
    if level < 0:
        raise ValueError("level must be >= 0")
    if spec.base_cells < 1:
        raise ValueError("base_cells must be >= 1")
    if spec.kind in ("rectangle", "square_patch"):
        m = _build_rectangle(spec)
    elif spec.kind == "lshape":
        m = _build_lshape(spec)
    elif spec.kind == "disk":
        m = _build_disk(spec)
    else:
        m = _build_flower(spec)
    for _ in range(level):
        m = refine_uniform(m)
    return m


def _check_bounds(spec):
    if spec.bounds is None or len(spec.bounds) != 4:
        raise ValueError(f"{spec.kind} needs bounds=(x0, x1, y0, y1)")
    x0, x1, y0, y1 = map(float, spec.bounds)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty or inverted bounds {spec.bounds}")
    return x0, x1, y0, y1


def _structured(x0, x1, y0, y1, nx, ny):
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    n0 = (iy * (nx + 1) + ix).ravel()
    cells = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    return nodes, cells


def _build_rectangle(spec):
    x0, x1, y0, y1 = _check_bounds(spec)
    nx = int(spec.base_cells)
    # keep cells near-square for non-square boxes
    ny = max(1, round(nx * (y1 - y0) / (x1 - x0)))
    nodes, cells = _structured(x0, x1, y0, y1, nx, ny)
    return QuadMesh(nodes, cells, spec=spec, level=0)


def _build_lshape(spec):
    x0, x1, y0, y1 = _check_bounds(spec)
    n = int(spec.base_cells)
    if n % 2 != 0:
        raise ValueError("lshape base_cells must be even")
    nodes, cells = _structured(x0, x1, y0, y1, n, n)
    xm = 0.5 * (x0 + x1)
    ym = 0.5 * (y0 + y1)
    centers = nodes[cells].mean(axis=1)
    keep = ~((centers[:, 0] > xm) & (centers[:, 1] > ym))
    cells = cells[keep]
    used = np.unique(cells)
    remap = -np.ones(nodes.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    return QuadMesh(nodes[used], remap[cells], spec=spec, level=0)


class _NodePool:
    """Merge block grid nodes by rounded coordinate keys."""

    def __init__(self, tol):
        self.tol = tol
        self.table = {}
        self.coords = []

    def add(self, p):
        key = (round(p[0] / self.tol), round(p[1] / self.tol))
        idx = self.table.get(key)
        if idx is None:
            idx = len(self.coords)
            self.table[key] = idx
            self.coords.append((float(p[0]), float(p[1])))
        return idx


def _disk_blocks(cx, cy, r, n):
    """Node grids of the 5 transfinite blocks, each (n+1, n+1, 2)."""
    s = 0.5 * r / np.sqrt(2.0)  # central square corner sits at radius r/2
    u = np.linspace(0.0, 1.0, n + 1)
    blocks = []
    # central block, uniform Cartesian
    X, Y = np.meshgrid(-s + 2 * s * u, -s + 2 * s * u, indexing="ij")
    blocks.append(np.stack([cx + X, cy + Y], axis=-1))
    # outer blocks: u radial (inner edge -> arc), v counterclockwise
    corners = {
        "E": ((s, -s), (s, s), -0.25 * np.pi),
        "N": ((s, s), (-s, s), 0.25 * np.pi),
        "W": ((-s, s), (-s, -s), 0.75 * np.pi),
        "S": ((-s, -s), (s, -s), 1.25 * np.pi),
    }
    for key in ("E", "N", "W", "S"):
        (ax, ay), (bx, by), th0 = corners[key]
        uu, vv = np.meshgrid(u, u, indexing="ij")
        inx = ax + (bx - ax) * vv
        iny = ay + (by - ay) * vv
        th = th0 + 0.5 * np.pi * vv
        outx = r * np.cos(th)
        outy = r * np.sin(th)
        X = (1 - uu) * inx + uu * outx
        Y = (1 - uu) * iny + uu * outy
        blocks.append(np.stack([cx + X, cy + Y], axis=-1))
    return blocks


def _assemble_blocks(blocks, tol):
    pool = _NodePool(tol)
    cells = []
    for grid in blocks:
        nu, nv = grid.shape[0] - 1, grid.shape[1] - 1
        ids = np.empty((nu + 1, nv + 1), dtype=np.int64)
        for i in range(nu + 1):
            for j in range(nv + 1):
                ids[i, j] = pool.add(grid[i, j])
        for i in range(nu):
            for j in range(nv):
                cells.append((ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]))
    return np.asarray(pool.coords, dtype=float), np.asarray(cells, dtype=np.int64)


def _build_disk(spec):
    cx, cy = map(float, spec.center)
    r = float(spec.radius)
    if r <= 0:
        raise ValueError("disk radius must be positive")
    n = int(spec.base_cells)
    nodes, cells = _assemble_blocks(_disk_blocks(cx, cy, r, n), tol=1e-9 * r)

    def project(p):
        d = p - np.array([cx, cy])
        return np.array([cx, cy]) + r * d / np.linalg.norm(d)

    m = QuadMesh(nodes, cells, projector=project, spec=spec, level=0)
    if np.any(m.cell_areas() <= 0):
        raise ValueError("disk mesh has non-positive cells")
    return m


def _build_flower(spec):
    cx, cy = map(float, spec.center)
    r = float(spec.radius)
    a = float(spec.amplitude)
    lb = int(spec.lobes)
    if r <= 0 or not (0 <= a < 1):
        raise ValueError("flower needs radius > 0 and 0 <= amplitude < 1")
    nodes, cells = _assemble_blocks(
        _disk_blocks(cx, cy, r, int(spec.base_cells)), tol=1e-9 * r
    )
    dx = nodes[:, 0] - cx
    dy = nodes[:, 1] - cy
    th = np.arctan2(dy, dx)
    g = 1.0 + a * np.cos(lb * th)
    nodes = np.column_stack([cx + dx * g, cy + dy * g])

    def project(p):
        d = p - np.array([cx, cy])
        theta = np.arctan2(d[1], d[0])
        rho = r * (1.0 + a * np.cos(lb * theta))
        return np.array([cx, cy]) + rho * d / np.linalg.norm(d)

    m = QuadMesh(nodes, cells, projector=project, spec=spec, level=0)
    if np.any(m.cell_areas() <= 0):
        raise ValueError("flower mesh has non-positive cells")
    return m


def refine_uniform(m):
    """Split every cell into four via edge midpoints and the cell center.

    Children of cell c are 4c..4c+3. New midpoints of boundary edges are
    projected onto the exact boundary curve when the mesh has a projector.
    """
    nodes = m.nodes
    cells = m.cells
    mids = 0.5 * (nodes[m.edges[:, 0]] + nodes[m.edges[:, 1]])
    if m.projector is not None:
        for e in np.nonzero(m.boundary_edge_mask)[0]:
            mids[e] = m.projector(mids[e])
    # mean of the edge midpoints equals the vertex mean on straight cells
    # and tracks projected boundary midpoints on curved ones
    centers = mids[m.cell_to_edge].mean(axis=1)
    new_nodes = np.vstack([nodes, mids, centers])
    eoff = m.num_nodes
    coff = eoff + m.num_edges
    e01 = eoff + m.cell_to_edge[:, 0]
    e12 = eoff + m.cell_to_edge[:, 1]
    e23 = eoff + m.cell_to_edge[:, 2]
    e30 = eoff + m.cell_to_edge[:, 3]
    cc = coff + np.arange(m.num_cells)
    v0, v1, v2, v3 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    children = np.empty((m.num_cells, 4, 4), dtype=np.int64)
    children[:, 0] = np.column_stack([v0, e01, cc, e30])
    children[:, 1] = np.column_stack([e01, v1, e12, cc])
    children[:, 2] = np.column_stack([cc, e12, v2, e23])
    children[:, 3] = np.column_stack([e30, cc, e23, v3])
    return QuadMesh(
        new_nodes,
        children.reshape(-1, 4),
        projector=m.projector,
        spec=m.spec,
        level=m.level + 1,
    )


class CellLocator:
    """Uniform-grid spatial index over cell bounding boxes.

    The bin -> cell table is stored as CSR arrays (``indptr``, ``bin_cells``),
    cells ascending within each bin. Across ``locate`` calls the locator
    records ``unconverged``, the set of points whose chosen reference
    coordinates come from a Newton run that missed its tolerance, and
    ``max_miss``, the worst reference-unit distance of a point outside its
    chosen cell before clamping.
    """

    def __init__(self, mesh, bins=None):
        self.mesh = mesh
        self.quads = mesh.nodes[mesh.cells]
        self.cmin = self.quads.min(axis=1)
        self.cmax = self.quads.max(axis=1)
        self.lo = self.cmin.min(axis=0)
        self.hi = self.cmax.max(axis=0)
        if bins is None:
            bins = max(1, int(np.sqrt(mesh.num_cells)))
        self.nb = bins
        span = np.maximum(self.hi - self.lo, 1e-300)
        self.inv = bins / span
        b0 = self._bin_idx(self.cmin)
        nbox = self._bin_idx(self.cmax) - b0 + 1
        cell, k = _segments(nbox[:, 0] * nbox[:, 1])
        key = (b0[cell, 0] + k // nbox[cell, 1]) * bins + b0[cell, 1] + k % nbox[cell, 1]
        self.bin_cells = cell[np.argsort(key, kind="stable")]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=bins * bins))])
        self.unconverged = set()
        self.max_miss = 0.0

    def _bin_idx(self, x):
        """Bin (i, j) of each point of a (k, 2) array, clipped to the grid."""
        k = np.floor((x - self.lo) * self.inv).astype(int)
        return np.clip(k, 0, self.nb - 1)

    def _overlaps(self, lo, hi):
        """(k, M) mask: cell bounding boxes meeting each box [lo, hi]."""
        return np.all((self.cmin <= hi[:, None]) & (self.cmax >= lo[:, None]), axis=2)

    def candidates(self, xmin, ymin, xmax, ymax):
        """Cells whose bounding box overlaps the query box, sorted."""
        hit = self._overlaps(np.array([[xmin, ymin]]), np.array([[xmax, ymax]]))
        return np.flatnonzero(hit[0]).tolist()

    def locate(self, pts, slack=1e-10):
        """Find the containing cell and reference coordinates per point.

        The candidates of a point are the cells whose bounding box holds
        it. A point with none takes every cell whose bounding box meets
        the box of half-width ``slack`` around it, in physical units.
        Newton inverts every (point, candidate) pair at once; a point
        takes its first candidate, in cell order, with the smallest
        reference-unit distance outside the cell, and coordinates up to
        ``slack`` outside it (in reference units) are clamped into the
        cell. Raises ValueError when a point is farther away than that
        from every candidate cell.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        b = self._bin_idx(pts)
        b = b[:, 0] * self.nb + b[:, 1]
        pt, k = _segments(self.indptr[b + 1] - self.indptr[b])
        cell = self.bin_cells[self.indptr[b][pt] + k]
        inside = np.all((self.cmin[cell] <= pts[pt]) & (self.cmax[cell] >= pts[pt]), axis=1)
        pt, cell = pt[inside], cell[inside]
        lost = np.setdiff1d(np.arange(pts.shape[0]), pt)
        fp, fc = np.nonzero(self._overlaps(pts[lost] - slack, pts[lost] + slack))
        pt, cell = np.concatenate([pt, lost[fp]]), np.concatenate([cell, fc])
        ref, converged = invert_bilinear(self.quads[cell], pts[pt])
        miss = np.maximum(np.maximum(-ref, ref - 1.0), 0.0).max(axis=1)
        # first pair per point among those of least miss: the pairs of a
        # point are in cell order and lexsort is stable
        order = np.lexsort((miss, pt))
        found, first = np.unique(pt[order], return_index=True)
        pick = order[first]
        bad = np.ones(pts.shape[0], dtype=bool)
        bad[found] = miss[pick] > slack
        if bad.any():
            p = pts[np.argmax(bad)]
            raise ValueError(f"point {tuple(p)} not inside the mesh")
        self.unconverged.update(map(tuple, pts[~converged[pick]].tolist()))
        self.max_miss = float(np.max(miss[pick], initial=self.max_miss))
        return cell[pick], np.clip(ref[pick], 0.0, 1.0)


def _segments(counts):
    """Owner and local index of each entry of consecutive runs of counts."""
    owner = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - start[owner]
