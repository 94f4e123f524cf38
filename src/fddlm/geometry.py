"""Planar geometry kernel: convex polygon clipping and triangulation.

Polygons are (n, 2) float arrays with vertices in counterclockwise order.
All functions are pure; nothing in this module holds state.
"""

import numpy as np

__all__ = [
    "signed_area",
    "is_ccw_convex",
    "clip_convex",
    "fan_triangulate",
    "triangle_areas",
]


def signed_area(poly):
    """Shoelace signed area; positive for counterclockwise vertex order."""
    p = np.asarray(poly, dtype=float)
    x = p[:, 0]
    y = p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def is_ccw_convex(poly, tol=1e-12):
    """Check counterclockwise orientation and convexity.

    Consecutive-edge cross products must all be >= -tol * scale^2, where
    scale is the bounding-box diagonal. Nearly collinear vertices pass.
    """
    p = np.asarray(poly, dtype=float)
    if p.shape[0] < 3:
        return False
    d = np.roll(p, -1, axis=0) - p
    cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
    scale = np.linalg.norm(p.max(axis=0) - p.min(axis=0))
    return bool(np.all(cross >= -tol * scale * scale)) and signed_area(p) > 0.0


def clip_convex(subject, clipper, min_area_ratio=1e-12):
    """Intersect two convex polygons by Sutherland-Hodgman clipping.

    Parameters
    ----------
    subject : (n, 2) array_like
        Polygon to be clipped, counterclockwise.
    clipper : (m, 2) array_like
        Convex clipping polygon, counterclockwise. Each directed edge
        defines a half plane; the subject is clipped against all of them.
    min_area_ratio : float
        Results with ``|area| < min_area_ratio * area(subject)`` are
        treated as empty (sliver suppression).

    Returns
    -------
    (k, 2) ndarray or None
        Intersection polygon in counterclockwise order, or None when the
        intersection is empty.
    """
    out = np.asarray(subject, dtype=float)
    clp = np.asarray(clipper, dtype=float)
    area0 = abs(signed_area(out))
    if area0 == 0.0:
        return None
    span = np.concatenate([out, clp])
    scale = float(np.linalg.norm(span.max(axis=0) - span.min(axis=0)))
    dtol = 1e-12 * scale  # signed-distance tolerance for on-edge points
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
    out = _dedupe(out, 1e-12 * scale)
    if out is None or out.shape[0] < 3:
        return None
    if abs(signed_area(out)) < min_area_ratio * area0:
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


def triangle_areas(tris):
    """Signed areas of an (n, 3, 2) triangle array."""
    t = np.asarray(tris, dtype=float)
    u = t[:, 1] - t[:, 0]
    v = t[:, 2] - t[:, 0]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
