"""Coupling between the background and immersed spaces.

The multiplier is one value per immersed cell, numbered as the cells, so
both pairings have a row per immersed cell. The pairing with the
background space needs integrals of background basis functions over
immersed cells. The background mesh must be a rectangle or square-patch
mesh from ``build_mesh``, on its lattice (others are rejected with
ValueError), so the background cells an immersed cell may overlap follow
from its bounding box by a search of the grid lines, and in its own
reference coordinates each of them is the unit square. Each (immersed,
background) candidate pair gets the monomial moments of bidegree <= 2
over the immersed cell's part of that square by Green's theorem on the
immersed cell's own four edges
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
from .mesh import grid_lines
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
    """Grid lines xs, ys and (row, col) -> cell table of a background mesh;
    ValueError unless the corners of every cell, counterclockwise from the
    lower left, are exactly those of a box of ``grid_lines``."""
    if t.spec is not None and t.spec.kind in ("rectangle", "square_patch"):
        xs, ys = grid_lines(t.spec, t.level)
        lo = t.nodes[t.cells[:, 0]]
        col = np.clip(np.searchsorted(xs, lo[:, 0]), 0, xs.size - 2)
        row = np.clip(np.searchsorted(ys, lo[:, 1]), 0, ys.size - 2)
        x0, x1, y0, y1 = xs[col], xs[col + 1], ys[row], ys[row + 1]
        box = np.column_stack([x0, y0, x1, y0, x1, y1, x0, y1]).reshape(-1, 4, 2)
        index = np.full((ys.size - 1, xs.size - 1), -1)
        index[row, col] = np.arange(t.num_cells)
        if index.size == t.num_cells and index.min() >= 0 and np.array_equal(t.nodes[t.cells], box):
            return xs, ys, index
    raise ValueError("background mesh is not a uniform axis-aligned grid on its lattice")


def build_intersections(t2, t):
    """Moments of every immersed cell's pieces in the background grid.

    The candidates of an immersed cell are the background cells whose
    interiors meet its bounding box, found and bounded by the grid lines.
    All (immersed, background) candidate pairs, ordered by immersed cell
    and then background cell index, map the immersed cell into the
    reference coordinates (xi, eta) = (x - lower left) / extent of their
    background cell, where ``square_moments`` integrates xi^p eta^q,
    p, q <= 2, over its part of the unit square; the moments are scaled
    back to physical area. The pairs go through the kernel in blocks of
    ``_BLOCK_ROWS`` rows into one preallocated array; the kernel treats
    each row on its own, so the result equals that of a single call bit
    for bit. A piece whose area M00 is below ``SLIVER_RTOL`` times the
    area of its immersed cell is empty or a sliver, and is dropped.

    Parameters
    ----------
    t2, t : QuadMesh
        Immersed and background meshes. The background must be a
        rectangle or square-patch mesh from ``build_mesh``, on its
        lattice, that covers every immersed cell.

    Returns
    -------
    CouplingTable

    Raises
    ------
    ValueError
        When the background mesh is not a rectangle or square-patch mesh
        from ``build_mesh``, on its lattice.
    CoverageError
        When the fragment areas of a cell do not sum to the cell area
        within a relative 1e-10, naming the offending cell.
    """
    xs, ys, index = _grid(t)
    polys = t2.nodes[t2.cells]
    top = np.array(index.shape[::-1]) - 1
    # columns and rows met inside: a cell only touched holds no fragment
    lo, hi = polys.min(axis=1), polys.max(axis=1)
    first = np.column_stack([np.searchsorted(v, lo[:, a], "right") for a, v in enumerate((xs, ys))])
    last = np.column_stack([np.searchsorted(v, hi[:, a]) for a, v in enumerate((xs, ys))])
    first, last = np.clip(first - 1, 0, top), np.clip(last - 1, 0, top)
    span = last - first + 1
    num = span.prod(axis=1)
    cell = np.repeat(np.arange(t2.num_cells), num)
    k = np.arange(cell.size) - np.repeat(np.cumsum(num) - num, num)
    col = first[cell, 0] + k % span[cell, 0]
    row = first[cell, 1] + k // span[cell, 0]
    bg_cell = index[row, col]
    order = np.lexsort((bg_cell, cell))
    cell, bg_cell, col, row = cell[order], bg_cell[order], col[order], row[order]
    moments = np.empty((cell.size, 3, 3))
    for s in range(0, cell.size, _BLOCK_ROWS):
        block = slice(s, s + _BLOCK_ROWS)
        c, r = col[block], row[block]
        lo = np.column_stack([xs[c], ys[r]])
        ext = np.column_stack([xs[c + 1], ys[r + 1]]) - lo
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
