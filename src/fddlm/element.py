"""Reference elements on the unit square, quadrature rules, cell maps.

Families
--------
q1   : bilinear, 4 corner nodes
q2   : biquadratic, 9 nodes on the tensor lattice {0, 0.5, 1}^2
q1b  : q1 enriched with the interior bubble 16 x (1-x) y (1-y)
p0   : piecewise constant, one dof per cell

Corner ordering is counterclockwise: (0,0), (1,0), (1,1), (0,1). The q2
edge dofs follow the corresponding edges (bottom, right, top, left) and
the cell dof comes last.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "ElementFamily",
    "Q1",
    "Q2",
    "Q1B",
    "P0",
    "basis_matrix",
    "grad_matrix",
    "QuadratureRule",
    "gauss_square",
    "cell_geometry",
    "invert_bilinear",
]


@dataclass(frozen=True)
class ElementFamily:
    """Tag and dof count of a reference element family."""

    tag: str
    ndofs: int

    def __repr__(self):
        return f"ElementFamily({self.tag!r})"


Q1 = ElementFamily("q1", 4)
Q2 = ElementFamily("q2", 9)
Q1B = ElementFamily("q1b", 5)
P0 = ElementFamily("p0", 1)

# q2 tensor indices (ix, iy) into the 1d lattice {0, 0.5, 1}, dof order:
# 4 corners, 4 edge midpoints (bottom, right, top, left), center.
_Q2_IDX = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)]


def _lag3(t):
    """Quadratic Lagrange values on nodes {0, 0.5, 1}; shape (..., 3)."""
    t = np.asarray(t, dtype=float)
    return np.stack(
        [2.0 * t * t - 3.0 * t + 1.0, 4.0 * t * (1.0 - t), t * (2.0 * t - 1.0)],
        axis=-1,
    )


def _lag3_d(t):
    """Derivatives of _lag3."""
    t = np.asarray(t, dtype=float)
    return np.stack([4.0 * t - 3.0, 4.0 - 8.0 * t, 4.0 * t - 1.0], axis=-1)


def basis_matrix(fam, pts):
    """Evaluate all reference basis functions at points.

    Parameters
    ----------
    fam : ElementFamily
    pts : (k, 2) array_like of reference coordinates in [0, 1]^2

    Returns
    -------
    (k, ndofs) ndarray
    """
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    x = p[:, 0]
    y = p[:, 1]
    if fam.tag == "p0":
        return np.ones((p.shape[0], 1))
    if fam.tag in ("q1", "q1b"):
        vals = np.stack(
            [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=1
        )
        if fam.tag == "q1b":
            bub = 16.0 * x * (1 - x) * y * (1 - y)
            vals = np.hstack([vals, bub[:, None]])
        return vals
    if fam.tag == "q2":
        lx = _lag3(x)
        ly = _lag3(y)
        vals = np.empty((p.shape[0], 9))
        for k, (ix, iy) in enumerate(_Q2_IDX):
            vals[:, k] = lx[:, ix] * ly[:, iy]
        return vals
    raise ValueError(f"unhandled family {fam.tag}")


def grad_matrix(fam, pts):
    """Reference gradients of all basis functions at points; (k, ndofs, 2)."""
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    x = p[:, 0]
    y = p[:, 1]
    if fam.tag == "p0":
        return np.zeros((p.shape[0], 1, 2))
    if fam.tag in ("q1", "q1b"):
        g = np.empty((p.shape[0], fam.ndofs, 2))
        g[:, 0, 0] = -(1 - y)
        g[:, 0, 1] = -(1 - x)
        g[:, 1, 0] = 1 - y
        g[:, 1, 1] = -x
        g[:, 2, 0] = y
        g[:, 2, 1] = x
        g[:, 3, 0] = -y
        g[:, 3, 1] = 1 - x
        if fam.tag == "q1b":
            g[:, 4, 0] = 16.0 * (1 - 2 * x) * y * (1 - y)
            g[:, 4, 1] = 16.0 * x * (1 - x) * (1 - 2 * y)
        return g
    if fam.tag == "q2":
        lx = _lag3(x)
        ly = _lag3(y)
        dx = _lag3_d(x)
        dy = _lag3_d(y)
        g = np.empty((p.shape[0], 9, 2))
        for k, (ix, iy) in enumerate(_Q2_IDX):
            g[:, k, 0] = dx[:, ix] * ly[:, iy]
            g[:, k, 1] = lx[:, ix] * dy[:, iy]
        return g
    raise ValueError(f"unhandled family {fam.tag}")


@dataclass(frozen=True)
class QuadratureRule:
    """Points (k, 2), positive weights (k,) and nominal exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def gauss_square(n):
    """Tensor Gauss-Legendre rule on [0, 1]^2.

    n points per direction (1 <= n <= 6), exact for polynomials of degree
    2n - 1 per variable. Weights sum to 1.
    """
    if not 1 <= int(n) <= 6:
        raise ValueError(f"gauss_square: n must be in 1..6, got {n}")
    n = int(n)
    x, w = leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(pts, W.ravel(), 2 * n - 1)


def cell_geometry(mesh, quad):
    """Jacobians (M, q, 2, 2), determinants (M, q) and physical points
    (M, q, 2) of a mesh's bilinear cell maps at a rule's points."""
    dN = grad_matrix(Q1, quad.points)
    N = basis_matrix(Q1, quad.points)
    X = mesh.nodes[mesh.cells]
    J = np.einsum("mla,qlb->mqab", X, dN, optimize=True)
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    phys = np.einsum("ql,mla->mqa", N, X)
    return J, det, phys


def invert_bilinear(quads, x, tol=1e-13, maxit=25):
    """Invert the bilinear maps of quads (k, 4, 2) at points (k, 2) by Newton.

    Returns the reference coordinates, not clamped to [0, 1]^2, and a (k,)
    mask of the lanes whose residual fell below ``tol * max(|quad|, 1)``
    within ``maxit`` steps. Each lane stops once it converges: only the
    active lanes are updated, by index. A lane that meets a singular
    Jacobian stops there, unconverged, with NaN reference coordinates.
    """
    ref = np.full_like(x, 0.5)
    tols = tol * np.maximum(np.abs(quads).max(axis=(1, 2)), 1.0)
    act = np.arange(x.shape[0])
    converged = np.ones(x.shape[0], dtype=bool)
    for _ in range(maxit):
        if not act.size:
            break
        q = quads[act]
        r = x[act] - np.matmul(basis_matrix(Q1, ref[act])[:, None], q)[:, 0]
        go = ~(np.abs(r).max(axis=1) < tols[act])
        act, q, r = act[go], q[go], r[go]
        J = np.einsum("kla,klb->kab", q, grad_matrix(Q1, ref[act]))
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        # a singular Jacobian ends its lane with no reference point
        ok = det != 0
        ref[act[~ok]] = np.nan
        converged[act[~ok]] = False
        act, J, r, det = act[ok], J[ok], r[ok], det[ok]
        ref[act, 0] += (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
        ref[act, 1] += (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
    converged[act] = False
    return ref, converged
