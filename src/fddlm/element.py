"""Reference elements on the unit square, quadrature rules, cell maps.

Every family is a tensor product: basis function i is f_a(x) f_b(y), its
two 1-D factors taken from the table ``_1D`` of five: 1 - t, t and the
quadratic Lagrange functions on {0, 1/2, 1}. q1 uses (1 - t, t) in both
directions, q2 the quadratics, and q1b adds to q1 the bubble
(4x(1-x)) (4y(1-y)). The factors' nodes give each
function a reference node, and its count of 1/2 coordinates the entity
that carries the dof: 0 a vertex, 1 an edge, 2 the cell. Vertices come
first, counterclockwise from (0,0); then edges, bottom, right, top, left
(local edge k joins vertices k and k+1); then the cell.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "ElementFamily",
    "Q1",
    "Q2",
    "Q1B",
    "basis_matrix",
    "grad_matrix",
    "QuadratureRule",
    "gauss_square",
    "cell_geometry",
    "cell_points",
    "invert_bilinear",
]

# (node, value, derivative) of each 1-D factor; constant derivatives are
# Python floats, which broadcast in the products below
_1D = (
    (0.0, lambda t: 1.0 - t, lambda t: -1.0),
    (1.0, lambda t: t, lambda t: 1.0),
    (0.0, lambda t: 2.0 * t * t - 3.0 * t + 1.0, lambda t: 4.0 * t - 3.0),
    (0.5, lambda t: 4.0 * t * (1.0 - t), lambda t: 4.0 - 8.0 * t),
    (1.0, lambda t: t * (2.0 * t - 1.0), lambda t: 4.0 * t - 1.0),
)

# reference nodes of the vertices, the edges and the cell: local entity
# k of dimension d sits at _NODES[4 * d + k]
_NODES = ((0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5), (0.5, 0.5))


@dataclass(frozen=True)
class ElementFamily:
    """A tensor-product family: basis function i is
    ``_1D[fx[i]](x) * _1D[fy[i]](y)`` on the unit square."""

    tag: str
    fx: tuple
    fy: tuple

    def __repr__(self):
        return f"ElementFamily({self.tag!r})"

    @property
    def ndofs(self):
        return len(self.fx)

    @property
    def entities(self):
        """(dim, local index) of each function's dof entity: dim 0 is a
        vertex, 1 an edge and 2 the cell, found from its reference node."""
        nodes = [(_1D[a][0], _1D[b][0]) for a, b in zip(self.fx, self.fy)]
        return [(n.count(0.5), _NODES.index(n) - 4 * n.count(0.5)) for n in nodes]


Q1 = ElementFamily("q1", (0, 1, 1, 0), (0, 0, 1, 1))
Q2 = ElementFamily("q2", (2, 4, 4, 2, 3, 4, 3, 2, 3), (2, 2, 4, 4, 2, 3, 4, 3, 3))
Q1B = ElementFamily("q1b", (0, 1, 1, 0, 3), (0, 0, 1, 1, 3))


def _factors(idx, t, k):
    """Entry k (1 the value, 2 the derivative) of each 1-D factor in idx at t."""
    return {a: _1D[a][k](t) for a in set(idx)}


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
    vx = _factors(fam.fx, p[:, 0], 1)
    vy = _factors(fam.fy, p[:, 1], 1)
    out = np.empty((p.shape[0], fam.ndofs))
    for j, (a, b) in enumerate(zip(fam.fx, fam.fy)):
        out[:, j] = vx[a] * vy[b]
    return out


def grad_matrix(fam, pts):
    """Reference gradients of all basis functions at points; (k, ndofs, 2)."""
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    vx = _factors(fam.fx, p[:, 0], 1)
    vy = _factors(fam.fy, p[:, 1], 1)
    dx = _factors(fam.fx, p[:, 0], 2)
    dy = _factors(fam.fy, p[:, 1], 2)
    out = np.empty((p.shape[0], fam.ndofs, 2))
    for j, (a, b) in enumerate(zip(fam.fx, fam.fy)):
        out[:, j, 0] = dx[a] * vy[b]
        out[:, j, 1] = vx[a] * dy[b]
    return out


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
    """Jacobians (M, q, 2, 2) and determinants (M, q) of a mesh's bilinear
    cell maps at a rule's points."""
    dN = grad_matrix(Q1, quad.points)
    X = mesh.nodes[mesh.cells]
    J = np.einsum("mla,qlb->mqab", X, dN, optimize=True)
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    return J, det


def cell_points(mesh, quad):
    """Physical points (M, q, 2) of a mesh's bilinear cell maps at a rule's
    points: the Q1 basis times the four nodes, summed node by node in
    local order."""
    N = basis_matrix(Q1, quad.points)
    X = mesh.nodes.T[:, mesh.cells.T]  # (coordinate, node, cell)
    phys = N[:, 0, None, None] * X[:, 0]
    for node in range(1, 4):
        phys += N[:, node, None, None] * X[:, node]
    return phys.transpose(2, 0, 1)


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
