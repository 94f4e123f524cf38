"""Independent reference implementations that only the tests use.

``clip_convex`` intersects one pair of general convex polygons; it is the
oracle of the batched grid-line clipper. ``fan_rule`` integrates over a
convex polygon by a triangle rule on its fan triangulation; it is the
oracle of the Green's-theorem polygon moments.
"""

import numpy as np

from fddlm.element import QuadratureRule
from fddlm.geometry import EDGE_RTOL, SLIVER_RTOL


def signed_area(poly):
    """Shoelace signed area; positive for counterclockwise vertex order.

    Taken about the first vertex, so that rounding scales with the
    polygon's size and not with its distance from the origin.
    """
    p = np.asarray(poly, dtype=float)
    p = p - p[0]
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


# Symmetric rules on the reference triangle (0,0), (1,0), (0,1); weights
# sum to the measure 1/2 and are all positive. The classical 4-point
# degree-3 rule has a negative weight, so degree-3 requests get the
# 6-point degree-4 rule.
_TRI_D4_A1 = 0.445948490915965
_TRI_D4_W1 = 0.223381589678011
_TRI_D4_A2 = 0.091576213509771
_TRI_D4_W2 = 0.109951743655322
_TRI_D5_A1 = 0.470142064105115
_TRI_D5_W1 = 0.132394152788506
_TRI_D5_A2 = 0.101286507323456
_TRI_D5_W2 = 0.125939180544827


def _tri_orbit(a):
    """The three permutation points of barycentric (1-2a, a, a) in xy."""
    return [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]


def gauss_triangle(degree):
    """Symmetric positive-weight rule on the unit reference triangle.

    Exact for total degree <= degree, 1 <= degree <= 5.
    """
    d = int(degree)
    if not 1 <= d <= 5:
        raise ValueError(f"gauss_triangle: degree must be in 1..5, got {degree}")
    if d == 1:
        pts = [(1.0 / 3.0, 1.0 / 3.0)]
        wts = [0.5]
    elif d == 2:
        pts = [(1.0 / 6.0, 1.0 / 6.0), (2.0 / 3.0, 1.0 / 6.0), (1.0 / 6.0, 2.0 / 3.0)]
        wts = [1.0 / 6.0] * 3
    elif d in (3, 4):
        pts = _tri_orbit(_TRI_D4_A1) + _tri_orbit(_TRI_D4_A2)
        wts = [0.5 * _TRI_D4_W1] * 3 + [0.5 * _TRI_D4_W2] * 3
        d = 4
    else:
        pts = [(1.0 / 3.0, 1.0 / 3.0)]
        pts += _tri_orbit(_TRI_D5_A1) + _tri_orbit(_TRI_D5_A2)
        wts = [0.5 * 0.225] + [0.5 * _TRI_D5_W1] * 3 + [0.5 * _TRI_D5_W2] * 3
    return QuadratureRule(np.asarray(pts, dtype=float), np.asarray(wts), d)


def fan_rule(poly):
    """Points and weights of the degree-4 triangle rule on the fan of a
    convex polygon; exact for polynomials of total degree <= 4 on it."""
    tris = fan_triangulate(poly)
    rule = gauss_triangle(4)
    a, b, c = tris[:, None, 0], tris[:, None, 1], tris[:, None, 2]
    pts = a + rule.points[:, :1] * (b - a) + rule.points[:, 1:] * (c - a)
    u, v = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    return pts.reshape(-1, 2), np.outer(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0], rule.weights).ravel()
