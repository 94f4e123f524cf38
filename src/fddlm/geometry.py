"""Planar geometry kernel: clipping against grid cells and polygon moments.

Polygons are (n, 2) float arrays with vertices in counterclockwise order;
batches of them are padded to a common vertex count with a count per row.
``clip_to_boxes`` clips convex polygons against axis-aligned boxes, the
cells of a uniform background grid, by four grid-line cuts.
``polygon_moments`` integrates the monomials x^p y^q, p, q <= 2, over
padded rows exactly by Green's theorem. All functions are pure; nothing
in this module holds state.
"""

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


def _compact(verts, mask):
    """Move the masked vertices of each row to its front, in order."""
    count = mask.sum(axis=1)
    out = np.zeros((verts.shape[0], max(int(count.max(initial=0)), 1), 2))
    r, c = np.nonzero(mask)
    out[r, np.cumsum(mask, axis=1)[r, c] - 1] = verts[r, c]
    return out, count


def clip_to_boxes(subjects, lo, hi):
    """Clip convex polygons against axis-aligned boxes (Sutherland-Hodgman).

    Each row is cut by the four grid lines x >= lo_x, x <= hi_x,
    y >= lo_y, y <= hi_y of its box. A vertex within EDGE_RTOL of a line
    counts as on it, and each cut vertex lies exactly on its line.

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
    out = np.asarray(subjects, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    P, n = out.shape[:2]
    diag = np.maximum(out.max(axis=1), hi) - np.minimum(out.min(axis=1), lo)
    tol = EDGE_RTOL * np.hypot(diag[:, 0], diag[:, 1])
    live = np.arange(P)  # rows still non-empty
    count = np.full(P, n)
    for axis, side, bound in ((0, 1, lo), (0, -1, hi), (1, 1, lo), (1, -1, hi)):
        line = bound[live, axis]
        dtol = tol[live, None]
        col = np.arange(out.shape[1])
        valid = col < count[:, None]
        nxt = np.where(col + 1 < count[:, None], col + 1, 0)
        # signed distance to the line; >= 0 means inside
        d = side * (out[:, :, axis] - line[:, None])
        dj = np.take_along_axis(d, nxt, axis=1)
        inside = d >= -dtol
        keep = valid & inside
        cut = valid & np.where(inside, (dj < -dtol) & (d > dtol), dj > dtol)
        t = np.divide(d, d - dj, out=np.zeros_like(d), where=cut)
        nxt_v = np.take_along_axis(out, nxt[:, :, None], axis=1)
        cut_v = out + t[:, :, None] * (nxt_v - out)
        cut_v[:, :, axis] = line[:, None]
        # each vertex emits itself, then its cut point
        width = 2 * out.shape[1]
        cand = np.stack([out, cut_v], axis=2).reshape(live.size, width, 2)
        out, count = _compact(cand, np.stack([keep, cut], axis=2).reshape(live.size, width))
        alive = count >= 3
        live, out, count = live[alive], out[alive], count[alive]
    verts = np.zeros((P,) + out.shape[1:])
    verts[live] = out
    counts = np.zeros(P, dtype=np.int64)
    counts[live] = count
    return verts, counts


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
