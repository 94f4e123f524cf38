"""Numerical inf-sup test for the multiplier coupling.

The discrete inf-sup constant of the pairing between the immersed space
and the piecewise constant multiplier space is estimated from the
generalized eigenproblem

    C2 (h2^2 N1)^{-1} C2^T-style pencil:  S v = sigma N2 v,
    S = C2^T (h2^2 N1)^{-1} C2,

with N1 the multiplier mass matrix (diagonal of cell areas) and N2 the
H1 matrix (stiffness + mass) of the immersed space. S is positive
semidefinite with rank at most m = dim(Lambda_h); the relevant constant
is the square root of the m-th largest eigenvalue (the smallest nonzero
one when C2 has full row rank). A stable pairing keeps it bounded away
from zero under refinement; a degenerating one drives it to zero.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import element as el
from .coupling import assemble_C2
from .mesh import build_mesh, refine_uniform
from .runner import ELEMENTS
from .space import build_space
from .system import assemble_mass, assemble_stiffness

__all__ = [
    "build_norm_matrices",
    "infsup_constant",
    "infsup_constant_svd",
    "InfSupReport",
    "infsup_sweep",
]

_MAX_DENSE = 12000

# gamma of the scaled pencil is dimensionless and sits at O(0.01..1) for
# any resolvable pairing; values at sqrt(machine eps) scale mean the
# constraint matrix is numerically rank deficient
_SINGULAR_TOL = 1e-7


def build_norm_matrices(v2_space, lambda_space):
    """N1 (multiplier mass, diagonal cell areas) and N2 (H1 matrix)."""
    if lambda_space.family.tag != "p0":
        raise ValueError("lambda_space must be p0")
    if lambda_space.mesh is not v2_space.mesh:
        raise ValueError("spaces must share the immersed mesh")
    areas = v2_space.mesh.cell_areas()
    N1 = sp.diags(areas).tocsr()
    N2 = (assemble_stiffness(v2_space) + assemble_mass(v2_space)).tocsr()
    return N1, N2


def _pencil_matrices(C2, N1, N2, h2):
    dinv = 1.0 / (h2 * h2 * N1.diagonal())
    C2d = C2.toarray()
    S = C2d.T @ (dinv[:, None] * C2d)
    S = 0.5 * (S + S.T)
    return S, N2.toarray()


def _schur_sigma(C2, N1, N2, h2, block=512):
    # the nonzero pencil spectrum equals the spectrum of the m x m Schur
    # form W = D^{-1/2} C2 N2^{-1} C2^T D^{-1/2}; its smallest eigenvalue
    # is the m-th largest pencil eigenvalue, including the zeros of a
    # rank-deficient C2
    dis = (1.0 / (h2 * np.sqrt(N1.diagonal())))[:, None]
    R = C2.multiply(dis).tocsr()
    RT = sp.csc_matrix(R.T)
    solve = spla.factorized(N2.tocsc())
    m = R.shape[0]
    W = np.empty((m, m))
    for j0 in range(0, m, block):
        j1 = min(j0 + block, m)
        W[:, j0:j1] = R @ solve(RT[:, j0:j1].toarray())
    W = 0.5 * (W + W.T)
    return sla.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]


def infsup_constant(C2, N1, N2, h2):
    """Inf-sup estimate via the generalized eigenproblem.

    Returns (sigma, gamma) where sigma is the m-th largest eigenvalue of
    the pencil (m = number of multiplier dofs) and gamma = sqrt(sigma).
    Uses the dense n2 x n2 pencil at desk scale and falls back to the
    equivalent m x m Schur form (sparse factorization of N2) when only
    the multiplier space is small enough.
    """
    m, n2 = C2.shape
    if m > n2:
        raise ValueError("multiplier space larger than immersed space")
    if n2 <= _MAX_DENSE:
        S, B = _pencil_matrices(C2, N1, N2, h2)
        idx = n2 - m  # ascending order: position of the m-th largest
        w = sla.eigh(S, B, eigvals_only=True, subset_by_index=[idx, idx])
        sigma = float(max(w[0], 0.0))
    elif m <= _MAX_DENSE:
        sigma = float(max(_schur_sigma(C2, N1, N2, h2), 0.0))
    else:
        raise ValueError(
            f"pencil dimensions ({m}, {n2}) too large for the dense "
            f"eigensolve (limit {_MAX_DENSE}); use a coarser immersed "
            "base resolution"
        )
    return sigma, float(np.sqrt(sigma))


def infsup_constant_svd(C2, N1, N2, h2):
    """Same constant through the equivalent singular value problem.

    With N2 = L L^T and D = h2^2 N1, gamma is the smallest singular
    value of D^{-1/2} C2 L^{-T}. Serves as an independent cross-check of
    the eigenvalue path.
    """
    m, n2 = C2.shape
    if n2 > _MAX_DENSE:
        raise ValueError("dim(V2h) too large for the dense SVD")
    L = sla.cholesky(N2.toarray(), lower=True)
    dis = 1.0 / (h2 * np.sqrt(N1.diagonal()))
    # M = D^{-1/2} C2 L^{-T}; columns solved as L^{-1} C2^T
    Y = sla.solve_triangular(L, C2.toarray().T, lower=True)
    M = dis[:, None] * Y.T
    svals = sla.svdvals(M)
    return float(svals[min(m, n2) - 1])


@dataclass
class InfSupReport:
    """Per-level inf-sup estimates of one element choice."""

    element: str
    geometry: str
    levels: list = field(default_factory=list)
    h2: list = field(default_factory=list)
    dim_V2h: list = field(default_factory=list)
    dim_Lh: list = field(default_factory=list)
    sigma_min: list = field(default_factory=list)
    gamma_est: list = field(default_factory=list)

    def verdict(self, threshold=0.5):
        """'stable' if gamma(finest)/gamma(coarsest) >= threshold,
        'degenerating' if the pairing is numerically singular at the
        finest level or the sequence decreases monotonically below the
        threshold."""
        g = self.gamma_est
        if len(g) < 2:
            return "inconclusive"
        if g[-1] < _SINGULAR_TOL:
            return "degenerating"
        if g[0] <= 0:
            return "inconclusive"
        if g[-1] / g[0] >= threshold:
            return "stable"
        if all(b < a for a, b in zip(g, g[1:])):
            return "degenerating"
        return "inconclusive"


def infsup_sweep(element, spec, levels):
    """Refinement sweep of the inf-sup estimate on one immersed geometry.

    Parameters
    ----------
    element : str
        elm1 (q1 + bubble), elm2 (q2) or the unstable control q1q1p0.
    spec : DomainSpec
        Immersed domain; its base_cells fixes the level-0 resolution.
    levels : int
        Number of refinement levels (>= 1).
    """
    if element not in ELEMENTS:
        raise ValueError(
            f"unknown element tag {element!r}; valid tags: {sorted(ELEMENTS)}"
        )
    if levels < 1:
        raise ValueError("levels must be >= 1")
    fam = ELEMENTS[element][1]
    report = InfSupReport(element=element, geometry=spec.kind)
    t2 = build_mesh(spec, 0)
    for lvl in range(levels):
        if lvl > 0:
            t2 = refine_uniform(t2)
        v2 = build_space(t2, fam)
        lh = build_space(t2, el.P0)
        C2 = assemble_C2(lh, v2)
        N1, N2 = build_norm_matrices(v2, lh)
        sigma, gamma = infsup_constant(C2, N1, N2, t2.h)
        report.levels.append(lvl)
        report.h2.append(t2.h)
        report.dim_V2h.append(v2.ndofs)
        report.dim_Lh.append(lh.ndofs)
        report.sigma_min.append(sigma)
        report.gamma_est.append(gamma)
    return report
