"""Planar geometry kernel: convex polygon clipping and polygon moments.

Polygons are (n, 2) float arrays with vertices in counterclockwise order.
``clip_convex`` takes one pair of polygons at a time;
``clip_convex_batch`` does the same arithmetic on many rows at once,
polygons padded to a common vertex count with a count per row, and gives
bitwise the same vertices. Both clippers read the tolerances below.
``polygon_moments`` integrates the monomials x^p y^q, p, q <= 2, over
padded rows exactly by Green's theorem. ``fan_triangulate`` splits one
polygon into triangles; with a triangle rule it is the independent check
of the moments. All functions are pure; nothing in this module holds
state.
"""

from itertools import product
from math import comb

import numpy as np

__all__ = [
    "EDGE_RTOL",
    "SLIVER_RTOL",
    "signed_area",
    "clip_convex",
    "clip_convex_batch",
    "polygon_moments",
    "fan_triangulate",
]

# Relative to the bounding-box diagonal of a subject/clipper pair: a point
# this close to a clip edge counts as on it, and consecutive vertices this
# close count as one. Cut points carry rounding errors of a few ulps of the
# coordinates, far below it; genuine features of the meshes are far above.
EDGE_RTOL = 1e-12
# Relative to the subject's area: a clipped piece smaller than this is a
# sliver left by a subject that touches the clipper within EDGE_RTOL along
# an edge or at a corner, and is dropped as empty.
SLIVER_RTOL = 1e-12


def signed_area(poly):
    """Shoelace signed area; positive for counterclockwise vertex order."""
    p = np.asarray(poly, dtype=float)
    x = p[:, 0]
    y = p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def clip_convex(subject, clipper):
    """Intersect two convex polygons by Sutherland-Hodgman clipping.

    Parameters
    ----------
    subject : (n, 2) array_like
        Polygon to be clipped, counterclockwise.
    clipper : (m, 2) array_like
        Convex clipping polygon, counterclockwise. Each directed edge
        defines a half plane; the subject is clipped against all of them.

    Returns
    -------
    (k, 2) ndarray or None
        Intersection polygon in counterclockwise order, or None when the
        intersection is empty or a sliver (``|area| < SLIVER_RTOL *
        area(subject)``).
    """
    out = np.asarray(subject, dtype=float)
    clp = np.asarray(clipper, dtype=float)
    area0 = abs(signed_area(out))
    if area0 == 0.0:
        return None
    span = np.concatenate([out, clp])
    scale = float(np.linalg.norm(span.max(axis=0) - span.min(axis=0)))
    dtol = EDGE_RTOL * scale  # signed-distance tolerance for on-edge points
    m = clp.shape[0]
    for k in range(m):
        a = clp[k]
        b = clp[(k + 1) % m]
        e = b - a
        elen = float(np.hypot(e[0], e[1]))
        if elen == 0.0:
            continue
        # cross(e, p - a) / |e| is the signed distance; >= 0 means inside
        d = (e[0] * (out[:, 1] - a[1]) - e[1] * (out[:, 0] - a[0])) / elen
        if np.all(d >= -dtol):
            continue
        if np.all(d < -dtol):
            return None
        nout = out.shape[0]
        verts = []
        for i in range(nout):
            j = (i + 1) % nout
            di, dj = d[i], d[j]
            if di >= -dtol:
                verts.append(out[i])
                if dj < -dtol and di > dtol:
                    t = di / (di - dj)
                    verts.append(out[i] + t * (out[j] - out[i]))
            elif dj >= -dtol:
                if dj > dtol:
                    t = di / (di - dj)
                    verts.append(out[i] + t * (out[j] - out[i]))
        if len(verts) < 3:
            return None
        out = np.asarray(verts)
    out = _dedupe(out, dtol)
    if out is None or out.shape[0] < 3:
        return None
    if abs(signed_area(out)) < SLIVER_RTOL * area0:
        return None
    return out


def _dedupe(poly, tol):
    """Drop consecutive vertices closer than tol (cyclically)."""
    keep = []
    n = poly.shape[0]
    for i in range(n):
        if not keep or np.hypot(*(poly[i] - poly[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.hypot(*(poly[keep[0]] - poly[keep[-1]])) <= tol:
        keep.pop()
    if len(keep) < 3:
        return None
    return poly[keep]


def _row_areas(verts, count):
    """signed_area of each padded row, summed as signed_area sums it."""
    area = np.zeros(count.size)
    for n in np.unique(count[count > 0]):
        rows = np.flatnonzero(count == n)
        x = verts[rows, :n, 0]
        y = verts[rows, :n, 1]
        # np.sum over an axis of length n adds in the order it uses for a
        # length-n vector, so each row matches signed_area bitwise
        terms = x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y
        area[rows] = 0.5 * np.sum(terms, axis=1)
    return area


def _compact(verts, mask):
    """Move the masked vertices of each row to its front, in order."""
    count = mask.sum(axis=1)
    out = np.zeros((verts.shape[0], max(int(count.max(initial=0)), 1), 2))
    r, c = np.nonzero(mask)
    out[r, np.cumsum(mask, axis=1)[r, c] - 1] = verts[r, c]
    return out, count


def clip_convex_batch(subjects, clippers):
    """clip_convex of many subject/clipper pairs in one pass.

    Parameters
    ----------
    subjects : (P, n, 2) array_like
        Polygons to be clipped, counterclockwise.
    clippers : (P, m, 2) array_like
        Convex clipping polygons, counterclockwise.

    Returns
    -------
    verts : (P, w, 2) ndarray
        Row k holds ``clip_convex(subjects[k], clippers[k])`` in its first
        ``count[k]`` vertices, bitwise equal; the rest is zero padding.
    count : (P,) ndarray
        Vertex count per row, 0 where clip_convex returns None.
    """
    sub = np.asarray(subjects, dtype=float)
    clp = np.asarray(clippers, dtype=float)
    P, n = sub.shape[:2]
    m = clp.shape[1]
    area0 = np.abs(_row_areas(sub, np.full(P, n)))
    diag = np.maximum(sub.max(axis=1), clp.max(axis=1)) - np.minimum(
        sub.min(axis=1), clp.min(axis=1)
    )
    # np.linalg.norm of a 2-vector is a BLAS dot; a stack of 1x2 @ 2x1
    # products reaches the same dot, so the tolerance is clip_convex's
    scale = np.sqrt(np.matmul(diag[:, None, :], diag[:, :, None])[:, 0, 0])
    tol = EDGE_RTOL * scale
    live = np.flatnonzero(area0 != 0.0)  # rows still non-empty
    out = sub[live]
    count = np.full(live.size, n)
    for k in range(m):
        a = clp[live, k]
        e = clp[live, (k + 1) % m] - a
        elen = np.hypot(e[:, 0], e[:, 1])
        dtol = tol[live, None]
        col = np.arange(out.shape[1])
        valid = col < count[:, None]
        nxt = np.where(col + 1 < count[:, None], col + 1, 0)
        # signed distance as in clip_convex; a zero-length edge leaves
        # d = 0, every vertex inside and the row unchanged
        cross = e[:, None, 0] * (out[:, :, 1] - a[:, None, 1]) - e[:, None, 1] * (
            out[:, :, 0] - a[:, None, 0]
        )
        d = np.divide(cross, elen[:, None], out=np.zeros_like(cross), where=elen[:, None] > 0)
        dj = np.take_along_axis(d, nxt, axis=1)
        inside = d >= -dtol
        keep = valid & inside
        cut = valid & np.where(inside, (dj < -dtol) & (d > dtol), dj > dtol)
        t = np.divide(d, d - dj, out=np.zeros_like(d), where=cut)
        nxt_v = np.take_along_axis(out, nxt[:, :, None], axis=1)
        cut_v = out + t[:, :, None] * (nxt_v - out)
        # each vertex emits itself, then its cut point
        width = 2 * out.shape[1]
        cand = np.stack([out, cut_v], axis=2).reshape(live.size, width, 2)
        out, count = _compact(cand, np.stack([keep, cut], axis=2).reshape(live.size, width))
        alive = count >= 3
        live, out, count = live[alive], out[alive], count[alive]
    # cyclic dedupe as in _dedupe: each vertex against the last one kept,
    # then the last kept one against the first
    dtol = tol[live]
    keep = np.zeros(out.shape[:2], dtype=bool)
    keep[:, 0] = True
    last = out[:, 0]
    last_col = np.zeros(live.size, dtype=np.int64)
    for c in range(1, out.shape[1]):
        diff = out[:, c] - last
        kc = (c < count) & (np.hypot(diff[:, 0], diff[:, 1]) > dtol)
        keep[:, c] = kc
        last = np.where(kc[:, None], out[:, c], last)
        last_col[kc] = c
    diff = out[:, 0] - last
    wrap = (last_col > 0) & (np.hypot(diff[:, 0], diff[:, 1]) <= dtol)
    keep[np.flatnonzero(wrap), last_col[wrap]] = False
    out, count = _compact(out, keep)
    alive = (count >= 3) & (np.abs(_row_areas(out, count)) >= SLIVER_RTOL * area0[live])
    verts = np.zeros((P,) + out.shape[1:])
    verts[live[alive]] = out[alive]
    counts = np.zeros(P, dtype=np.int64)
    counts[live[alive]] = count[alive]
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


def fan_triangulate(poly):
    """Split a convex polygon into triangles fanned from the vertex mean.

    Returns an (n, 3, 2) array of triangles whose signed areas sum to
    signed_area(poly) exactly up to floating rounding.
    """
    p = np.asarray(poly, dtype=float)
    c = p.mean(axis=0)
    n = p.shape[0]
    tris = np.empty((n, 3, 2))
    tris[:, 0] = c
    tris[:, 1] = p
    tris[:, 2] = np.roll(p, -1, axis=0)
    return tris
