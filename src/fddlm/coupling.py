"""Coupling between the background and immersed spaces.

The multiplier pairing restricted to the background space needs integrals
of background basis functions over immersed cells. The background mesh
must be a uniform axis-aligned grid (others are rejected with ValueError),
so the background cells an immersed cell may overlap follow by index
arithmetic from its bounding box. All (immersed, background) candidate
pairs are clipped in one batched pass (exact convex polygon intersection,
``geometry.clip_convex_batch``), the pieces are fan-triangulated and a
symmetric degree-4 triangle rule is mapped to every triangle. The
background cell maps are affine, so C1 is built in one vectorized pass
over all quadrature points. No quadrature on cut cells is approximated by
sampling; the clipped geometry is exact up to floating point rounding.
"""

import numpy as np
import scipy.sparse as sp

from . import element as el
from .geometry import clip_convex_batch, fan_triangulate_batch, triangle_areas

__all__ = [
    "CouplingTable",
    "CoverageError",
    "build_intersections",
    "assemble_C1",
    "assemble_C2",
]

# degree 4 keeps products of a biquadratic background basis with the
# constant multiplier exact on straight background cells
_TRI_DEGREE = 4
_COVERAGE_RTOL = 1e-10
# grid tolerance relative to the coordinate scale: refined grids are
# uniform only up to rounding, and bounding boxes are padded by the same
# amount so that a cell touched within rounding is still a candidate
_GRID_RTOL = 1e-9


class CoverageError(RuntimeError):
    """Raised when an immersed cell is not fully covered by the background mesh."""


class CouplingTable:
    """Clipped pieces (fragments) of immersed cells against background cells.

    Fragment k is the intersection of immersed cell ``cell[k]`` with
    background cell ``bg_cell[k]``. Fragments are ordered by immersed
    cell, then by background cell index (deterministic). The quadrature
    of fragment k is ``points[ptr[k]:ptr[k + 1]]`` with the matching
    ``weights``, which sum to the fragment area.
    """

    def __init__(self, t2, t, cell, bg_cell, ptr, points, weights):
        self.t2 = t2
        self.t = t
        self.cell = cell
        self.bg_cell = bg_cell
        self.ptr = ptr
        self.points = points
        self.weights = weights

    @property
    def num_fragments(self):
        return self.cell.size

    def __repr__(self):
        return f"CouplingTable(cells={self.t2.num_cells}, fragments={self.num_fragments})"


def _grid(t):
    """Origin, spacing, tolerance and (row, col) -> cell table of a grid.

    Raises ValueError unless the cells tile a rectangle in rows and
    columns of one extent, corners counterclockwise from the lower left.
    """
    X = t.nodes[t.cells]
    lo = X[:, 0]
    h = (X[:, 2] - lo).mean(axis=0)
    tol = _GRID_RTOL * (np.abs(X).max() + h.max())
    if h.min() > 0:
        origin = lo.min(axis=0)
        ij = np.rint((lo - origin) / h).astype(np.int64)
        shape = ij.max(axis=0) + 1
        ideal = origin + (ij[:, None] + [[0, 0], [1, 0], [1, 1], [0, 1]]) * h
        if np.abs(X - ideal).max() <= tol and shape.prod() == t.num_cells:
            index = np.full(shape[::-1], -1)
            index[ij[:, 1], ij[:, 0]] = np.arange(t.num_cells)
            if index.min() >= 0:
                return origin, h, tol, index
    raise ValueError("background mesh is not a uniform axis-aligned grid")


def _triangle_quadrature(tris, rule):
    """Map a reference triangle rule onto every triangle of an (n, 3, 2) array."""
    a = tris[:, None, 0]
    b = tris[:, None, 1]
    c = tris[:, None, 2]
    xh = rule.points[:, 0, None]
    yh = rule.points[:, 1, None]
    pts = a + xh * (b - a) + yh * (c - a)
    # reference measure is 1/2, so the affine scale factor is 2*area
    wts = rule.weights * (2.0 * triangle_areas(tris))[:, None]
    return pts.reshape(-1, 2), wts.ravel()


def build_intersections(t2, t):
    """Clip every immersed cell against the background grid in one pass.

    The candidates of an immersed cell are the background cells of its
    padded index box. All (immersed, background) candidate pairs, ordered
    by immersed cell and then background cell index, are clipped at once
    by ``clip_convex_batch``, which gives bitwise the pieces ``clip_convex``
    gives pair by pair. The non-empty pieces are fan-triangulated and carry
    the degree-4 triangle rule.

    Parameters
    ----------
    t2, t : QuadMesh
        Immersed and background meshes. The background must be a uniform
        axis-aligned grid that covers every immersed cell.

    Returns
    -------
    CouplingTable

    Raises
    ------
    ValueError
        When the background mesh is not a uniform axis-aligned grid.
    CoverageError
        When the fragment areas of a cell do not sum to the cell area
        within a relative 1e-10, naming the offending cell.
    """
    origin, h, tol, index = _grid(t)
    polys = t2.nodes[t2.cells]
    top = np.array(index.shape[::-1]) - 1
    first = np.clip(np.floor((polys.min(axis=1) - origin - tol) / h), 0, top).astype(np.int64)
    last = np.clip(np.floor((polys.max(axis=1) - origin + tol) / h), 0, top).astype(np.int64)
    span = last - first + 1
    num = span.prod(axis=1)
    cell = np.repeat(np.arange(t2.num_cells), num)
    k = np.arange(cell.size) - np.repeat(np.cumsum(num) - num, num)
    col = first[cell, 0] + k % span[cell, 0]
    row = first[cell, 1] + k // span[cell, 0]
    bg_cell = index[row, col]
    order = np.lexsort((bg_cell, cell))
    cell, bg_cell = cell[order], bg_cell[order]
    verts, count = clip_convex_batch(polys[cell], t.nodes[t.cells[bg_cell]])
    hit = count > 0
    cell, bg_cell, count = cell[hit], bg_cell[hit], count[hit]
    rule = el.gauss_triangle(_TRI_DEGREE)
    points, weights = _triangle_quadrature(fan_triangulate_batch(verts[hit], count), rule)
    ptr = rule.npoints * np.concatenate([[0], np.cumsum(count)])
    area = np.add.reduceat(weights, ptr[:-1])
    covered = np.bincount(cell, weights=area, minlength=t2.num_cells)
    target = np.abs(t2.cell_areas())
    bad = np.flatnonzero(np.abs(covered - target) > _COVERAGE_RTOL * target)
    if bad.size:
        i = bad[0]
        raise CoverageError(
            f"immersed cell {i} not covered by the background mesh: "
            f"fragment area {covered[i]:.15e} vs cell area {target[i]:.15e}"
        )
    return CouplingTable(t2, t, cell, bg_cell, ptr, points, weights)


def assemble_C1(table, lambda_space, vh_space):
    """Multiplier pairing with the background space.

    Entry (i, j) = integral over (immersed cell i) of the background
    basis function j, accumulated fragment by fragment. The multiplier is
    piecewise constant with basis value 1 on its cell. Every quadrature
    point maps to the reference square of its background cell by the
    affine map (x - lower left) / extent.

    Returns an (m, n) CSR matrix, m = dim(Lambda_h), n = dim(V_h).
    """
    if lambda_space.family.tag != "p0":
        raise ValueError("lambda_space must be p0")
    if lambda_space.mesh is not table.t2 or vh_space.mesh is not table.t:
        raise ValueError("coupling table does not match the given spaces")
    fam = vh_space.family
    X = table.t.nodes[table.t.cells[table.bg_cell]]
    lo = np.repeat(X[:, 0], np.diff(table.ptr), axis=0)
    ext = np.repeat(X[:, 2], np.diff(table.ptr), axis=0) - lo
    phi = el.basis_matrix(fam, (table.points - lo) / ext)
    phi *= table.weights[:, None]
    vals = np.add.reduceat(phi, table.ptr[:-1], axis=0)
    rows = np.repeat(table.cell, fam.ndofs)
    cols = vh_space.dof_map[table.bg_cell].ravel()
    mat = sp.coo_matrix(
        (vals.ravel(), (rows, cols)), shape=(lambda_space.ndofs, vh_space.ndofs)
    )
    return mat.tocsr()


def assemble_C2(lambda_space, v2_space, quad=None):
    """Multiplier pairing with the immersed space (same mesh, no clipping).

    Entry (i, j) = integral over cell i of immersed basis function j.
    Returns an (m, n2) CSR matrix.
    """
    if lambda_space.family.tag != "p0":
        raise ValueError("lambda_space must be p0")
    if lambda_space.mesh is not v2_space.mesh:
        raise ValueError("lambda and immersed spaces must share a mesh")
    if quad is None:
        quad = el.gauss_square(3)
    mesh = v2_space.mesh
    fam = v2_space.family
    phi = el.basis_matrix(fam, quad.points)
    dN = el.grad_matrix(el.Q1, quad.points)
    X = mesh.nodes[mesh.cells]
    J = np.einsum("mla,qlb->mqab", X, dN)
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    vals = np.einsum("q,mq,qj->mj", quad.weights, det, phi)
    rows = np.repeat(np.arange(mesh.num_cells), fam.ndofs)
    mat = sp.coo_matrix(
        (vals.ravel(), (rows, v2_space.dof_map.ravel())),
        shape=(lambda_space.ndofs, v2_space.ndofs),
    )
    return mat.tocsr()
