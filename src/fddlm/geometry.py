"""Planar geometry kernel: clipping against grid cells and polygon moments.

Polygons are (n, 2) float arrays with vertices in counterclockwise order;
batches of them are padded to a common vertex count with a count per row.
``clip_to_boxes`` clips convex polygons against axis-aligned boxes, the
cells of a uniform background grid, by four grid-line cuts.
``polygon_moments`` integrates the monomials x^p y^q, p, q <= 2, over
padded rows exactly by Green's theorem. All functions are pure; nothing
in this module holds state.
"""

from functools import reduce
from itertools import product
from math import comb

import numpy as np

__all__ = [
    "EDGE_RTOL",
    "SLIVER_RTOL",
    "clip_to_boxes",
    "polygon_moments",
]

# Relative to the bounding-box diagonal of a polygon/box pair: a vertex
# this close to a grid line counts as on it. Cut points carry rounding
# errors of a few ulps of the coordinates, far below it; genuine features
# of the meshes are far above.
EDGE_RTOL = 1e-12
# Relative to the area of the polygon being clipped: a piece smaller than
# this is a sliver left by a polygon that touches a box within EDGE_RTOL
# along an edge or at a corner, and counts as empty.
SLIVER_RTOL = 1e-12


def clip_to_boxes(subjects, lo, hi):
    """Clip convex polygons against axis-aligned boxes (Sutherland-Hodgman).

    Each row is cut by the four grid lines x >= lo_x, x <= hi_x,
    y >= lo_y, y <= hi_y of its box. A vertex within EDGE_RTOL of a line
    counts as on it, and each cut vertex lies exactly on its line. A cut
    runs only on the rows with a vertex outside its line; the others,
    which it would leave as they are, pass unchanged.

    Parameters
    ----------
    subjects : (P, n, 2) array_like
        Convex polygons, counterclockwise.
    lo, hi : (P, 2) array_like
        Lower left and upper right corners of the boxes.

    Returns
    -------
    verts : (P, w, 2) ndarray
        Row k holds the clipped polygon in its first ``count[k]``
        vertices, counterclockwise; the rest is zero padding. A polygon
        that touches its box only along a line may leave a sliver here;
        slivers are for the caller to drop by area.
    count : (P,) ndarray
        Vertex count per row, 0 where the intersection is empty.
    """
    subjects = np.asarray(subjects, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    P, n = subjects.shape[:2]
    # vertex by vertex: numpy reduces over a short inner axis slowly
    vmax = reduce(np.maximum, subjects.transpose(1, 0, 2))
    vmin = reduce(np.minimum, subjects.transpose(1, 0, 2))
    diag = np.maximum(vmax, hi) - np.minimum(vmin, lo)
    tol = EDGE_RTOL * np.hypot(diag[:, 0], diag[:, 1])
    # each cut of a convex polygon adds at most one vertex
    out = np.zeros((P, n + 4, 2))
    out[:, :n] = subjects
    count = np.full(P, n)
    for axis, side, bound in ((0, 1, lo), (0, -1, hi), (1, 1, lo), (1, -1, hi)):
        w = out.shape[1]
        col = np.arange(w)
        # signed distance to the line; >= 0 means inside
        d = side * (out[:, :, axis] - bound[:, axis, None])
        inside = d >= -tol[:, None]
        valid = col < count[:, None]
        # a row with no vertex outside the line passes unchanged
        rows = np.flatnonzero((valid & ~inside).any(axis=1))
        if not rows.size:
            continue
        # the cut rows, flattened: vertex k of cut row r is entry r w + k
        v, d, inside, valid = out[rows].reshape(-1, 2), d[rows], inside[rows], valid[rows]
        dtol = tol[rows, None]
        nxt = (np.arange(rows.size) * w)[:, None] + np.where(col + 1 < count[rows, None], col + 1, 0)
        dj = d.ravel()[nxt]
        keep = valid & inside
        cut = valid & np.where(inside, (dj < -dtol) & (d > dtol), dj > dtol)
        # each vertex emits itself if kept, then the cut point of its edge;
        # slot is the flat output position just past a vertex's emissions
        emit = keep.astype(np.int64) + cut
        pos = np.cumsum(emit, axis=1)
        c = pos[:, -1]
        W = max(w, int(c.max()))
        slot = ((np.arange(rows.size) * W)[:, None] + pos).ravel()
        piece = np.zeros((rows.size * W, 2))
        i = np.flatnonzero(keep)
        piece[slot[i] - emit.ravel()[i]] = v[i]
        i = np.flatnonzero(cut)
        di = d.ravel()[i]
        t = di / (di - dj.ravel()[i])
        p = v[i] + t[:, None] * (v[nxt.ravel()[i]] - v[i])
        p[:, axis] = bound[rows[i // w], axis]
        piece[slot[i] - 1] = p
        piece = piece.reshape(rows.size, W, 2)
        # fewer than three vertices: the row is empty from here on
        piece[c < 3] = 0.0
        count[rows] = np.where(c < 3, 0, c)
        if W > w:
            out = np.pad(out, ((0, 0), (0, W - w), (0, 0)))
        out[rows] = piece
    return out[:, : max(int(count.max(initial=0)), 1)], count


# exponent pairs (p, k), k <= p <= 2, of the terms x^k y^(p-k) _terms stacks
_PK = np.array([(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])


def _terms(x, y):
    return np.stack([np.ones_like(x), y, x, y * y, x * y, x * x], axis=-1)


# Steger (1996): with a = (x_i, y_i), b = (x_{i+1}, y_{i+1}), int x^p y^q is
# the sum over edges of cross(a, b) sum_{k<=p, l<=q} C(k+l, l) C(p+q-k-l, q-l)
# b_x^k a_x^(p-k) b_y^l a_y^(q-l) / ((p+q+2) (p+q+1) C(p+q, p)); row
# ((p, k), (q, l)) of _GREEN holds that coefficient in column 3 p + q
_GREEN = np.zeros((36, 9))
for _i, ((_p, _k), (_q, _l)) in enumerate(product(_PK.tolist(), repeat=2)):
    _d = (_p + _q + 2) * (_p + _q + 1) * comb(_p + _q, _p)
    _GREEN[_i, 3 * _p + _q] = comb(_k + _l, _l) * comb(_p + _q - _k - _l, _q - _l) / _d


def polygon_moments(verts, count):
    """Integrals of x^p y^q, p, q <= 2, over padded polygon rows.

    Row k of ``verts`` (P, w, 2) holds a counterclockwise polygon in its
    first ``count[k]`` vertices. Returns M (P, 3, 3) with M[k, p, q] the
    integral of x^p y^q over polygon k, exact up to rounding (Green's
    theorem); rows with count 0 give zeros.
    """
    v = np.asarray(verts, dtype=float)
    P, w = v.shape[:2]
    col = np.arange(w)
    count = np.asarray(count)[:, None]
    # edges about each row's first vertex o, so that rounding scales with
    # the polygon's size and not with its distance from the origin
    o = v[:, 0]
    a = v - o[:, None]
    b = np.take_along_axis(a, np.where(col + 1 < count, col + 1, 0)[..., None], axis=1)
    cross = np.where(col < count, a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1], 0.0)
    ex = cross[..., None] * _terms(b[..., 0], a[..., 0])
    local = (np.swapaxes(ex, 1, 2) @ _terms(b[..., 1], a[..., 1])).reshape(P, 36) @ _GREEN
    # back to the origin: x^p = sum_k C(p, k) o^(p-k) (x - o)^k
    s = np.zeros((2, P, 3, 3))
    s[:, :, _PK[:, 0], _PK[:, 1]] = _terms(np.ones((2, P)), o.T) * [comb(*pk) for pk in _PK]
    return s[0] @ local.reshape(P, 3, 3) @ np.swapaxes(s[1], 1, 2)
