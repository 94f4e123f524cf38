"""Coupling between the background and immersed spaces.

The multiplier is one value per immersed cell, numbered as the cells, so
both pairings have a row per immersed cell. The pairing with the
background space needs integrals of background basis functions over
immersed cells. The background mesh must be a uniform axis-aligned grid
(others are rejected with ValueError), so the background cells an
immersed cell may overlap follow by index arithmetic from its bounding
box, and in its own reference coordinates each of them is the unit
square. Each (immersed, background) candidate pair gets the monomial
moments of bidegree <= 2 over the immersed cell's part of that square by
Green's theorem on the immersed cell's own four edges
(``geometry.square_moments``), batched over fixed blocks of pairs so
that the kernel's temporaries stay bounded at any level; the pieces
themselves are never built. A piece whose area, the moment M00, is below
``SLIVER_RTOL`` of its immersed cell's area is empty or a sliver of a
cell that touches a grid line, and is dropped. The Q1, Q1+bubble and Q2
bases are polynomials of bidegree <= 2 there, so C1 is one product of the
moments with the bases' monomial coefficients. Nothing on cut cells is
sampled or approximated; the integrals are exact up to floating point
rounding.
"""

import numpy as np
import scipy.sparse as sp

from . import element as el
from .geometry import square_moments
from .system import cell_integrals

__all__ = [
    "CouplingTable",
    "CoverageError",
    "build_intersections",
    "assemble_C1",
    "assemble_C2",
]

# exponents (p, q) of the flattened moments, index 3 p + q; halved, they
# are the lattice {0, 1/2, 1}^2, unisolvent for polynomials of bidegree <= 2
_POWERS = np.array([(p, q) for p in range(3) for q in range(3)])
_COVERAGE_RTOL = 1e-10
# relative to the area of the immersed cell: a piece smaller than this is
# empty up to rounding, or a sliver of a cell that touches a grid line
SLIVER_RTOL = 1e-12
# grid tolerance relative to the coordinate scale: refined grids are
# uniform only up to rounding, and bounding boxes are padded by the same
# amount so that a cell touched within rounding is still a candidate
_GRID_RTOL = 1e-9
# candidate pairs per call of square_moments: its edge, piece and Gauss
# point temporaries take about 1.5 kB a pair, so one call on all pairs of
# a 64^2 level (12-13 k) peaks near 19 MB, which the heap keeps resident
_BLOCK_ROWS = 2048


class CoverageError(RuntimeError):
    """Raised when an immersed cell is not fully covered by the background mesh."""


class CouplingTable:
    """Pieces (fragments) of immersed cells in background cells.

    Fragment k is the intersection of immersed cell ``cell[k]`` with
    background cell ``bg_cell[k]``. Fragments are ordered by immersed
    cell, then by background cell index (deterministic). With xi, eta the
    reference coordinates of background cell ``bg_cell[k]``,
    ``moments[k, p, q]`` is the integral of xi^p eta^q over fragment k
    (p, q <= 2), so ``moments[k, 0, 0]`` is its area.
    """

    def __init__(self, t2, t, cell, bg_cell, moments):
        self.t2 = t2
        self.t = t
        self.cell = cell
        self.bg_cell = bg_cell
        self.moments = moments

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


def build_intersections(t2, t):
    """Moments of every immersed cell's pieces in the background grid.

    The candidates of an immersed cell are the background cells of its
    padded index box. All (immersed, background) candidate pairs, ordered
    by immersed cell and then background cell index, map the immersed
    cell into the reference coordinates
    (xi, eta) = (x - lower left) / extent of their background cell, where
    ``square_moments`` integrates xi^p eta^q, p, q <= 2, over its part of
    the unit square; the moments are scaled back to physical area. The
    pairs go through the kernel in blocks of ``_BLOCK_ROWS`` rows into one
    preallocated array; the kernel treats each row on its own, so the
    result equals that of a single call bit for bit. A
    piece whose area M00 is below ``SLIVER_RTOL`` times the area of its
    immersed cell is empty or a sliver, and is dropped.

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
    moments = np.empty((cell.size, 3, 3))
    for s in range(0, cell.size, _BLOCK_ROWS):
        block = slice(s, s + _BLOCK_ROWS)
        quads = t.nodes[t.cells[bg_cell[block]]]
        lo, ext = quads[:, 0], quads[:, 2] - quads[:, 0]
        ref = (polys[cell[block]] - lo[:, None]) / ext[:, None]
        moments[block] = square_moments(ref) * ext.prod(axis=1)[:, None, None]
    target = np.abs(t2.cell_areas())
    solid = moments[:, 0, 0] >= SLIVER_RTOL * target[cell]
    cell, bg_cell, moments = cell[solid], bg_cell[solid], moments[solid]
    covered = np.bincount(cell, weights=moments[:, 0, 0], minlength=t2.num_cells)
    bad = np.flatnonzero(np.abs(covered - target) > _COVERAGE_RTOL * target)
    if bad.size:
        i = bad[0]
        raise CoverageError(
            f"immersed cell {i} not covered by the background mesh: "
            f"fragment area {covered[i]:.15e} vs cell area {target[i]:.15e}"
        )
    return CouplingTable(t2, t, cell, bg_cell, moments)


def assemble_C1(table, vh_space):
    """Multiplier pairing with the background space.

    The multiplier is one value per immersed cell, numbered as the cells.
    Entry (i, j) = integral over (immersed cell i) of the background
    basis function j, accumulated fragment by fragment. A background
    basis function of bidegree <= 2 is a combination of the monomials
    xi^p eta^q of its cell's reference coordinates, so its integral over a
    fragment is the same combination of the fragment's moments.

    Returns an (m, n) CSR matrix, m = immersed cells, n = dim(V_h).
    """
    if vh_space.mesh is not table.t:
        raise ValueError("coupling table does not match the background space")
    fam = vh_space.family
    # monomial coefficients of the basis from its values on the lattice
    lattice = _POWERS / 2
    vandermonde = np.prod(lattice[:, None] ** _POWERS, axis=2)
    coef = np.linalg.solve(vandermonde, el.basis_matrix(fam, lattice))
    vals = table.moments.reshape(-1, 9) @ coef
    rows = np.repeat(table.cell, fam.ndofs)
    cols = vh_space.dof_map[table.bg_cell].ravel()
    mat = sp.coo_matrix(
        (vals.ravel(), (rows, cols)), shape=(table.t2.num_cells, vh_space.ndofs)
    )
    return mat.tocsr()


def assemble_C2(v2_space):
    """Multiplier pairing with the immersed space (same mesh, no clipping).

    Entry (i, j) = integral over cell i of immersed basis function j
    (``system.cell_integrals``). Returns an (m, n2) CSR matrix, m = the
    cells of ``v2_space.mesh``.
    """
    vals = cell_integrals(v2_space)
    rows = np.repeat(np.arange(vals.shape[0]), vals.shape[1])
    mat = sp.coo_matrix(
        (vals.ravel(), (rows, v2_space.dof_map.ravel())), shape=(vals.shape[0], v2_space.ndofs)
    )
    return mat.tocsr()
