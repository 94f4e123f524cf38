"""Planar geometry kernel: monomial moments of polygons cut by the unit square.

``square_moments`` takes polygons in the reference coordinates (xi, eta)
of a grid cell, the unit square, and integrates xi^p eta^q, p, q <= 2,
over each polygon's intersection with the square by Green's theorem on
the polygon's own edges; the intersection itself is never built. The
function is pure; nothing in this module holds state.
"""

import numpy as np

__all__ = ["square_moments"]

# 3-point Gauss-Legendre rule on [0, 1]: exact for degree <= 5, the degree
# of eta^q xi^(p+1) along a straight edge for p, q <= 2
_GAUSS_T = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


def square_moments(polys):
    """Integrals of xi^p eta^q, p, q <= 2, over polygons cut by [0, 1]^2.

    With c the clamp to [0, 1] and xi0 the first vertex's xi, the field
    F = [0 <= eta <= 1] eta^q (c(xi)^(p+1) - c(xi0)^(p+1)) / (p+1) has
    dF/dxi = xi^p eta^q on the square and 0 off it, so by Green's theorem
    the integral over polygon ∩ square is the contour integral of F deta
    around the polygon. The xi0 term, a function of eta alone, adds zero
    around a closed polygon and makes a polygon off the square give exact
    zeros. Each edge is split where eta leaves [0, 1] and where xi crosses
    0 or 1; on each piece of positive length F deta is a polynomial of
    degree <= 5 in the edge parameter, which the 3-point Gauss rule
    integrates exactly.

    Parameters
    ----------
    polys : (P, n, 2) array_like
        Polygons, counterclockwise; a repeated vertex adds nothing.

    Returns
    -------
    M : (P, 3, 3) ndarray
        M[k, p, q] is the integral of xi^p eta^q over polys[k] ∩ [0, 1]^2,
        exact up to rounding.
    """
    a = np.asarray(polys, dtype=float)
    P, n = a.shape[:2]
    d = np.roll(a, -1, axis=1) - a
    # edge parameters where xi (axis 0) and eta (axis 1) reach 0 and 1; an
    # edge parallel to an axis gets 0 for both, so it never crosses its lines.
    # A subnormal step can overflow to +-inf: a crossing far beyond the
    # edge's ends, which the clamps below treat as such
    with np.errstate(over="ignore"):
        at0 = np.divide(-a, d, out=np.zeros_like(a), where=d != 0)
        at1 = np.divide(1.0 - a, d, out=np.zeros_like(a), where=d != 0)
    enter, leave = np.minimum(at0, at1), np.maximum(at0, at1)
    # the part of each edge in the strip 0 <= eta <= 1, cut where xi
    # crosses 0 and 1 into three pieces
    lo = np.clip(enter[..., 1], 0.0, 1.0)
    hi = np.clip(leave[..., 1], 0.0, 1.0)
    cuts = np.stack([lo, np.clip(enter[..., 0], lo, hi), np.clip(leave[..., 0], lo, hi), hi], -1)
    length = np.diff(cuts, axis=-1).ravel()
    keep = np.flatnonzero(length > 0)
    edge = keep // 3
    row = edge // n
    c0 = np.clip(a[row, :1, 0], 0.0, 1.0)
    a, d, length = a.reshape(-1, 2)[edge], d.reshape(-1, 2)[edge], length[keep, None]
    t = cuts[..., :-1].ravel()[keep, None] + length * _GAUSS_T
    c = np.clip(a[:, :1] + t * d[:, :1], 0.0, 1.0)
    eta = a[:, 1:] + t * d[:, 1:]
    # (c^(p+1) - c0^(p+1)) / (p+1) deta, with c - c0 factored out
    dc = (c - c0) * (length * _GAUSS_W * d[:, 1:])
    F = (dc, dc * (c + c0) / 2, dc * (c * c + c * c0 + c0 * c0) / 3)
    E = (1.0, eta, eta * eta)
    index = np.repeat(row, 3)
    M = np.empty((P, 3, 3))
    for p in range(3):
        for q in range(3):
            M[:, p, q] = np.bincount(index, weights=(F[p] * E[q]).ravel(), minlength=P)
    return M
