"""Quadrilateral meshes for the background box and the immersed region.

Supported domain kinds: axis-aligned rectangles (background box and
immersed square patches), an L-shaped patch (square minus its upper-right
quarter), and the disk and flower. One radial builder makes both of the
last two: a 5-block transfinite layout (central square plus four
boundary-fitted blocks) whose shared nodes are merged in one pass, and
for a flower each node's polar radius is then scaled by
1 + amplitude*cos(lobes*theta). A disk ignores amplitude and lobes.

``build_mesh(spec, level)`` applies ``level`` uniform refinements to the
level-0 mesh, so cell children are nested (children of cell c are
4c..4c+3) and h halves per level. New boundary-edge midpoints on curved
domains are projected onto the exact boundary curve, all in one call.
Rectangle, square-patch and L-shape nodes stay on ``grid_lines``.
"""

from dataclasses import dataclass

import numpy as np

from .element import invert_bilinear

__all__ = [
    "DomainSpec",
    "QuadMesh",
    "build_mesh",
    "grid_lines",
    "refine_uniform",
    "CellLocator",
]

_KINDS = ("rectangle", "square_patch", "lshape", "disk", "flower")
_LATTICE_KINDS = ("rectangle", "square_patch", "lshape")


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
    amplitude, lobes : flower boundary r(theta) = radius*(1 + amplitude*cos(lobes*theta));
        a disk ignores both.
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
        Maps a (k, 2) array of points onto the exact boundary curve; used
        during refinement.
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
        # one int64 key per sorted pair, ordered as the pairs lexicographically
        _, first, inv, counts = np.unique(
            pairs[:, 0] * self.num_nodes + pairs[:, 1],
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        self.edges = pairs[first]
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
    else:
        m = _build_radial(spec)
    for _ in range(level):
        m = refine_uniform(m)
    return m


def grid_lines(spec, level=0):
    """x and y lines (``np.linspace``) of a rectangle, square-patch or
    L-shape lattice at a level: every node of ``build_mesh(spec, level)``
    lies on them, bit for bit. Level k's lines are the even ones of level
    k + 1 exactly, as halving linspace's spacing is exact."""
    if spec.kind not in _LATTICE_KINDS:
        raise ValueError(f"{spec.kind} mesh has no grid lines; valid: {_LATTICE_KINDS}")
    if spec.bounds is None or len(spec.bounds) != 4:
        raise ValueError(f"{spec.kind} needs bounds=(x0, x1, y0, y1)")
    x0, x1, y0, y1 = map(float, spec.bounds)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty or inverted bounds {spec.bounds}")
    nx = int(spec.base_cells)
    # keep cells near-square for non-square boxes
    ny = nx if spec.kind == "lshape" else max(1, round(nx * (y1 - y0) / (x1 - x0)))
    k = 2**level
    return np.linspace(x0, x1, nx * k + 1), np.linspace(y0, y1, ny * k + 1)


def _structured(xs, ys):
    nodes = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
    n0 = (np.arange(ys.size - 1)[:, None] * xs.size + np.arange(xs.size - 1)).ravel()
    cells = np.column_stack([n0, n0 + 1, n0 + xs.size + 1, n0 + xs.size])
    return nodes, cells


def _build_rectangle(spec):
    nodes, cells = _structured(*grid_lines(spec))
    return QuadMesh(nodes, cells, spec=spec, level=0)


def _build_lshape(spec):
    n = int(spec.base_cells)
    if n % 2 != 0:
        raise ValueError("lshape base_cells must be even")
    nodes, cells = _structured(*grid_lines(spec))
    # drop the cells of the upper-right quarter; cell iy * n + ix is in row iy
    iy, ix = np.divmod(np.arange(n * n), n)
    keep = (ix < n // 2) | (iy < n // 2)
    used, cells = np.unique(cells[keep], return_inverse=True)
    return QuadMesh(nodes[used], cells.reshape(-1, 4), spec=spec, level=0)


def _disk_blocks(cx, cy, r, n):
    """Node grids of the 5 transfinite blocks, as one (5, n+1, n+1, 2) array."""
    s = 0.5 * r / np.sqrt(2.0)  # central square corner sits at radius r/2
    u = np.linspace(0.0, 1.0, n + 1)
    blocks = []
    # central block, uniform Cartesian
    X, Y = np.meshgrid(-s + 2 * s * u, -s + 2 * s * u, indexing="ij")
    blocks.append(np.stack([cx + X, cy + Y], axis=-1))
    # outer blocks E, N, W, S: u radial (inner edge -> arc), v counterclockwise
    corners = [(s, -s), (s, s), (-s, s), (-s, -s)]
    uu, vv = np.meshgrid(u, u, indexing="ij")
    for k in range(4):
        (ax, ay), (bx, by) = corners[k], corners[(k + 1) % 4]
        th = (2 * k - 1) * 0.25 * np.pi + 0.5 * np.pi * vv
        X = (1 - uu) * (ax + (bx - ax) * vv) + uu * (r * np.cos(th))
        Y = (1 - uu) * (ay + (by - ay) * vv) + uu * (r * np.sin(th))
        blocks.append(np.stack([cx + X, cy + Y], axis=-1))
    return np.stack(blocks)


def _build_radial(spec):
    """Disk or flower: the 5 disk blocks with shared nodes merged; a flower
    then scales each node's polar radius by 1 + amplitude*cos(lobes*theta)."""
    c = np.array(spec.center, dtype=float)
    r = float(spec.radius)
    a = float(spec.amplitude) if spec.kind == "flower" else 0.0
    lb = int(spec.lobes)
    if r <= 0:
        raise ValueError(f"{spec.kind} radius must be positive")
    if not 0 <= a < 1:
        raise ValueError("flower amplitude must be in [0, 1)")
    n = int(spec.base_cells)
    pts = _disk_blocks(c[0], c[1], r, n).reshape(-1, 2)
    # merge block nodes by rounded coordinates, numbered by first appearance
    keys = np.rint(pts / (1e-9 * r)).astype(np.int64)
    _, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = rank[inv].reshape(5, n + 1, n + 1)
    nodes = pts[np.sort(first)]
    # cell (i, j) of a block joins grid nodes (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    cells = np.stack(
        [ids[:, :-1, :-1], ids[:, 1:, :-1], ids[:, 1:, 1:], ids[:, :-1, 1:]], axis=-1
    ).reshape(-1, 4)
    # c + (x - c) is not x in floating point, so a disk is left unscaled
    if a != 0:
        d = nodes - c
        g = 1.0 + a * np.cos(lb * np.arctan2(d[:, 1], d[:, 0]))
        nodes = c + d * g[:, None]

    def project(p):
        d = p - c
        rho = r * (1.0 + a * np.cos(lb * np.arctan2(d[:, 1], d[:, 0])))
        # batched matmul rounds each row norm as np.linalg.norm of one row
        # does; hypot, einsum and norm(axis=1) differ in the last bit
        norm = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
        return c + rho[:, None] * d / norm

    m = QuadMesh(nodes, cells, projector=project, spec=spec, level=0)
    if np.any(m.cell_areas() <= 0):
        raise ValueError(f"{spec.kind} mesh has non-positive cells")
    return m


def refine_uniform(m):
    """Split every cell into four via edge midpoints and the cell center.

    Children of cell c are 4c..4c+3. New midpoints of boundary edges are
    projected onto the exact boundary curve when the mesh has a projector,
    which maps a (k, 2) array of points.
    """
    nodes = m.nodes
    cells = m.cells
    mids = 0.5 * (nodes[m.edges[:, 0]] + nodes[m.edges[:, 1]])
    if m.projector is not None:
        b = m.boundary_edge_mask
        mids[b] = m.projector(mids[b])
    # mean of the edge midpoints equals the vertex mean on straight cells
    # and tracks projected boundary midpoints on curved ones
    centers = mids[m.cell_to_edge].mean(axis=1)
    new_nodes = np.vstack([nodes, mids, centers])
    if m.spec is not None and m.spec.kind in _LATTICE_KINDS:
        # midpoints and means round off the lattice by an ulp; the coarse
        # nodes are on it already and keep every bit
        new = new_nodes[m.num_nodes :]
        for k, v in enumerate(grid_lines(m.spec, m.level + 1)):
            new[:, k] = v[np.rint((new[:, k] - v[0]) / (v[1] - v[0])).astype(np.int64)]
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
    chosen cell before clamping. The grid has about sqrt(cells) bins per
    side.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.quads = mesh.nodes[mesh.cells]
        self.cmin = self.quads.min(axis=1)
        self.cmax = self.quads.max(axis=1)
        self.lo = self.cmin.min(axis=0)
        self.hi = self.cmax.max(axis=0)
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
        self._last = None

    def _bin_idx(self, x):
        """Bin (i, j) of each point of a (k, 2) array, clipped to the grid."""
        k = np.floor((x - self.lo) * self.inv).astype(int)
        return np.clip(k, 0, self.nb - 1)

    def _overlaps(self, lo, hi):
        """(k, M) mask: cell bounding boxes meeting each box [lo, hi]."""
        return np.all((self.cmin <= hi[:, None]) & (self.cmax >= lo[:, None]), axis=2)

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
        from every candidate cell. A call with the same points and slack
        as the previous one returns the previous result.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        last = self._last
        if last is not None and last[0] == slack and np.array_equal(last[1], pts):
            return last[2]
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
        result = cell[pick], np.clip(ref[pick], 0.0, 1.0)
        self._last = (slack, pts.copy(), result)
        return result


def _segments(counts):
    """Owner and local index of each entry of consecutive runs of counts."""
    owner = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - start[owner]
