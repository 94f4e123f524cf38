"""Numerical inf-sup test for the multiplier coupling.

The multiplier is one value per immersed cell, numbered as the cells.
The discrete inf-sup constant of its pairing with the immersed space is
the m-th largest eigenvalue sigma of the generalized eigenproblem

    S v = sigma N2 v,    S = C2^T (h2^2 N1)^{-1} C2,

with N1 the multiplier mass matrix (diagonal of cell areas), N2 the H1
matrix (stiffness + mass) of the immersed space and m the number of
immersed cells, dim(Lambda_h).
S has rank at most m, so sigma is the smallest eigenvalue of the m x m
form W = R N2^{-1} R^T, R = (h2^2 N1)^{-1/2} C2 (Chapelle & Bathe 1993),
zero when C2 is rank deficient. W is never formed: shift-invert Lanczos
(ARPACK) gives the top eigenvalue mu of an inverse of W, applied through
one sparse factor per level, by one of two routes.

- Null space (elm1, elm2). Each row of C2 owns a column no other row
  touches (the cell's bubble or centre dof, ``system.interior_columns``).
  W^{-1} y is minus the multiplier of [[N2, R^T], [R, 0]] [v; lam] =
  [0; y], solved by ``system.NullSpace`` with one factor of the SPD
  matrix Z^T N2 Z, no eps, and sigma = 1/mu.
- eps saddle (q1q1p0, general C2, or a Z with entries above
  ``_GROWTH_MAX``). The lambda block of the inverse of
  S_eps = [[N2, R^T], [R, -eps I]], which is quasi-definite and so
  nonsingular for any C2, is -(W + eps I)^{-1}. One pivoted sparse LU
  of S_eps, and sigma = 1/mu - eps exactly.

A stable pairing keeps sqrt(sigma) away from zero under refinement.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coupling import assemble_C2
from .mesh import build_mesh, refine_uniform
from .runner import element_families
from .space import build_space
from .system import _UNPIVOTED_LU, NullSpace, assemble_matrix, interior_columns

__all__ = [
    "build_norm_matrices",
    "infsup_constant",
    "InfSupReport",
    "infsup_sweep",
]

# gamma of the scaled pencil is dimensionless and sits at O(0.01..1) for
# any resolvable pairing; values at sqrt(machine eps) scale mean the
# constraint matrix is numerically rank deficient
_SINGULAR_TOL = 1e-7

# least gamma(finest) / gamma(coarsest) of a stable pairing
_STABLE_RATIO = 0.5

# largest |entry| of the null-space basis Z = [I; -D^-1 C2_q] that route
# accepts: its rounding error grows with the square (1e-10 of the top
# eigenvalue at 76 on a random pencil with n2 = 9, m = 1), and on the FE
# pairings no entry exceeds 1
_GROWTH_MAX = 1e1


def build_norm_matrices(v2_space):
    """N1 (multiplier mass, diagonal cell areas) and N2 (H1 matrix).

    N1 has a row per cell of ``v2_space.mesh``. N2 is the stiffness plus
    the mass matrix of v2_space, ``system.assemble_matrix(v2_space, 1, 1)``:
    one pass over the cells.
    """
    N1 = sp.diags(v2_space.mesh.cell_areas()).tocsr()
    return N1, assemble_matrix(v2_space, 1.0, 1.0)


def infsup_constant(C2, N1, N2, h2, stats=None):
    """Inf-sup estimate (sigma, gamma = sqrt(sigma)) of the scaled pencil.

    sigma is the m-th largest pencil eigenvalue, 1 / lambda_max(W^{-1})
    (module docstring). When ``interior_columns`` finds a column for every
    row of C2 and the basis Z of the null space of R has no entry above
    ``_GROWTH_MAX``, W^{-1} is applied through one sparse factor of
    Z^T N2 Z; otherwise through one LU of the eps-regularized norm
    saddle. A ``stats`` dict receives ``factored`` (n2 - m, or n2 + m on
    the eps route), ``lu_fill`` (entries SuperLU stores for L and U),
    ``matvecs`` (applications of the inverse) and ``eps`` (0 on the
    null-space route).
    Raises ``ArpackNoConvergence`` if Lanczos does not converge.
    """
    m, n2 = C2.shape
    if m > n2:
        raise ValueError("multiplier space larger than immersed space")
    r = 1.0 / (h2 * np.sqrt(N1.diagonal()))
    interior = interior_columns(C2)
    if interior is not None:
        ns = NullSpace(N2, C2, interior)
    if interior is None or np.abs(ns.Z.data).max(initial=1.0) > _GROWTH_MAX:
        apply_inv, lu, eps = _saddle_inverse(C2.multiply(r[:, None]).tocsr(), N2)
        factored = n2 + m
    else:
        apply_inv, lu = _null_space_inverse(ns, r)
        eps, factored = 0.0, n2 - m
    calls = [0]

    def counted(y):
        calls[0] += y.size // m
        return apply_inv(y)

    if m <= 20:
        # ARPACK's default basis of min(m, 20) vectors spans the whole space
        mu = np.linalg.eigvalsh(counted(np.eye(m)))[-1]
    else:
        # a fixed generic start vector: repeated calls are bitwise equal
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
        op = spla.LinearOperator((m, m), matvec=counted, dtype=float)
        mu = spla.eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    sigma = float(max(1.0 / mu - eps, 0.0))
    if stats is not None:
        fill = 0 if lu is None else lu.nnz
        stats.update(factored=factored, lu_fill=fill, matvecs=calls[0], eps=float(eps))
    return sigma, float(np.sqrt(sigma))


def _null_space_inverse(ns, r):
    """W^{-1} from the ``NullSpace`` of (N2, C2) and one factor of its K.

    With R = diag(r) C2 and s = y / r, W^{-1} y = (G s - M^T K^{-1} M s) / r;
    the row scalings are folded into M and G once, so each application is
    two sparse products and one solve pair. Returns the apply and the
    factor (None when nq = 0, where W^{-1} is the scaled G alone).
    Unlike ``solve_saddle``, this keeps ``ns.K`` after the factor: nothing
    as large is built after it here, so dropping it would not lower the
    sweep's peak.
    """
    Dr = sp.diags(1.0 / r)
    G = (Dr @ ns.G @ Dr).tocsr()
    if not ns.K.shape[0]:
        return (lambda y: G @ y), None
    M = (ns.M @ Dr).tocsr()
    MT = M.T.tocsr()
    # this module's own spla, so perfbench charges the factor to infsup
    lu = spla.splu(ns.K, **_UNPIVOTED_LU)

    def apply_inv(y):
        return G @ y - MT @ lu.solve(M @ y)

    return apply_inv, lu


def _saddle_inverse(R, N2):
    """(W + eps I)^{-1} from one LU of S_eps = [[N2, R^T], [R, -eps I]].

    Returns the apply, the factor and eps, 1e-12 of the scale of W, which
    keeps the estimate scale equivariant.
    """
    m, n2 = R.shape
    eps = 1e-12 * R.multiply(R).sum(axis=1).max() / spla.norm(N2, np.inf)
    lu = spla.splu(sp.bmat([[N2, R.T], [R, -eps * sp.eye(m)]], format="csc"))

    def apply_inv(y):
        # -(S_eps^{-1} [0; y])_lambda, per column of y
        return -lu.solve(np.concatenate([np.zeros((n2,) + y.shape[1:]), y]))[n2:]

    return apply_inv, lu, eps


@dataclass
class InfSupReport:
    """Per-level inf-sup estimates and solve records of one element choice."""

    element: str
    geometry: str
    levels: list = field(default_factory=list)
    h2: list = field(default_factory=list)
    dim_V2h: list = field(default_factory=list)
    dim_Lh: list = field(default_factory=list)
    sigma_min: list = field(default_factory=list)
    gamma_est: list = field(default_factory=list)
    stats: list = field(default_factory=list)

    def verdict(self):
        """'stable' if gamma(finest)/gamma(coarsest) >= _STABLE_RATIO,
        'degenerating' if the pairing is numerically singular at the
        finest level or the sequence decreases monotonically below that
        ratio.

        The monotone rule cannot tell degeneration from a fall out of a
        pre-asymptotic start: with the per-geometry default bases and
        five levels, ``fddlm infsup`` calls the stable elm1 "degenerating"
        on example 2 (gamma = 0.274, 0.157, 0.134, 0.132, 0.132, levelled
        off) and on example 4 (0.0708, 0.0636, 0.048, 0.0393, 0.0331).
        The criterion-3 protocol is not affected."""
        g = self.gamma_est
        if len(g) < 2:
            return "inconclusive"
        if g[-1] < _SINGULAR_TOL:
            return "degenerating"
        if g[0] <= 0:
            return "inconclusive"
        if g[-1] / g[0] >= _STABLE_RATIO:
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
    fam = element_families(element)[1]
    if levels < 1:
        raise ValueError("levels must be >= 1")
    report = InfSupReport(element=element, geometry=spec.kind)
    t2 = build_mesh(spec, 0)
    for lvl in range(levels):
        if lvl > 0:
            t2 = refine_uniform(t2)
        v2 = build_space(t2, fam)
        C2 = assemble_C2(v2)
        N1, N2 = build_norm_matrices(v2)
        report.stats.append({})
        sigma, gamma = infsup_constant(C2, N1, N2, t2.h, report.stats[-1])
        report.levels.append(lvl)
        report.h2.append(t2.h)
        report.dim_V2h.append(v2.ndofs)
        report.dim_Lh.append(t2.num_cells)
        report.sigma_min.append(sigma)
        report.gamma_est.append(gamma)
    return report
