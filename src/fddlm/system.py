"""Saddle point system: assembly, Dirichlet elimination, direct solve, errors.

The three-field system couples the background solution u, the immersed
correction u2 and the piecewise constant multiplier lam:

    [ A1   0    C1^T ] [ u  ]   [ F1 ]
    [ 0    A2  -C2^T ] [ u2 ] = [ F2 ]
    [ C1  -C2   0    ] [ lam]   [ G  ]

A1 is the background stiffness weighted by beta, A2 the immersed
stiffness weighted by (beta2 - beta), and G is zero except for boundary
lifting contributions. The matrix is symmetric indefinite and is solved
by a pivoted sparse LU with one step of iterative refinement.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# unused here; kept as module attributes that perfbench/spans.py wraps by name
from scipy.linalg import lu_factor, lu_solve  # noqa: F401

from . import element as el

__all__ = [
    "BlockSystem",
    "SolutionTriple",
    "SolverError",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_A1",
    "assemble_A2",
    "assemble_rhs",
    "full_matrix",
    "apply_dirichlet",
    "solve_saddle",
    "error_norms",
    "project_p0",
    "multiplier_error",
]


def _cell_geometry(mesh, quad):
    """Jacobians, determinants and physical points at quadrature points."""
    dN = el.grad_matrix(el.Q1, quad.points)
    N = el.basis_matrix(el.Q1, quad.points)
    X = mesh.nodes[mesh.cells]
    J = np.einsum("mla,qlb->mqab", X, dN)
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    phys = np.einsum("ql,mla->mqa", N, X)
    return J, det, phys


def _physical_grads(fam, mesh, quad, J, det):
    """Physical basis gradients per cell and quadrature point; (M, q, nl, 2)."""
    dphi = el.grad_matrix(fam, quad.points)
    Jinv = np.empty_like(J)
    Jinv[:, :, 0, 0] = J[:, :, 1, 1]
    Jinv[:, :, 0, 1] = -J[:, :, 0, 1]
    Jinv[:, :, 1, 0] = -J[:, :, 1, 0]
    Jinv[:, :, 1, 1] = J[:, :, 0, 0]
    Jinv = Jinv / det[:, :, None, None]
    # grad phi = J^{-T} gradref phi
    return np.einsum("mqba,qlb->mqla", Jinv, dphi)


def _coeff_per_cell(coeff, mesh):
    c = np.asarray(coeff, dtype=float)
    if c.ndim == 0:
        return np.full(mesh.num_cells, float(c))
    if c.shape != (mesh.num_cells,):
        raise ValueError("per-cell coefficient must have one value per cell")
    return c


def _scatter(space, cellvals):
    nl = space.family.ndofs
    rows = np.repeat(space.dof_map, nl, axis=1).ravel()
    cols = np.tile(space.dof_map, (1, nl)).ravel()
    mat = sp.coo_matrix((cellvals.ravel(), (rows, cols)), shape=(space.ndofs, space.ndofs))
    return mat.tocsr()


def assemble_stiffness(space, coeff=1.0, quad=None):
    """Weighted stiffness matrix; coeff is a scalar or per-cell array."""
    if quad is None:
        quad = el.gauss_square(3)
    mesh = space.mesh
    J, det, _ = _cell_geometry(mesh, quad)
    g = _physical_grads(space.family, mesh, quad, J, det)
    c = _coeff_per_cell(coeff, mesh)
    ke = np.einsum("q,m,mq,mqla,mqka->mlk", quad.weights, c, det, g, g, optimize=True)
    return _scatter(space, ke)


def assemble_mass(space, coeff=1.0, quad=None):
    """Weighted mass matrix."""
    if quad is None:
        quad = el.gauss_square(3)
    mesh = space.mesh
    _, det, _ = _cell_geometry(mesh, quad)
    phi = el.basis_matrix(space.family, quad.points)
    c = _coeff_per_cell(coeff, mesh)
    me = np.einsum("q,m,mq,ql,qk->mlk", quad.weights, c, det, phi, phi, optimize=True)
    return _scatter(space, me)


def assemble_load(space, f, quad=None):
    """Load vector of a scalar source; f is a constant or f(x, y)."""
    if quad is None:
        quad = el.gauss_square(3)
    mesh = space.mesh
    _, det, phys = _cell_geometry(mesh, quad)
    phi = el.basis_matrix(space.family, quad.points)
    if callable(f):
        fv = np.asarray(f(phys[:, :, 0], phys[:, :, 1]), dtype=float)
        fv = np.broadcast_to(fv, det.shape)
    else:
        fv = np.full_like(det, float(f))
    fe = np.einsum("q,mq,mq,ql->ml", quad.weights, det, fv, phi, optimize=True)
    vec = np.zeros(space.ndofs)
    np.add.at(vec, space.dof_map.ravel(), fe.ravel())
    return vec


def assemble_A1(space, beta):
    """Background diffusion block (beta * stiffness on the box mesh)."""
    return assemble_stiffness(space, coeff=beta)


def assemble_A2(space, beta, beta2):
    """Immersed correction block ((beta2 - beta) * stiffness)."""
    b = np.asarray(beta, dtype=float)
    b2 = np.asarray(beta2, dtype=float)
    return assemble_stiffness(space, coeff=b2 - b)


def assemble_rhs(vh_space, v2_space, f=1.0, f2=1.0):
    """Right hand sides F1 = (f, v) on the box and F2 = (f2 - f, v2)."""
    F1 = assemble_load(vh_space, f)
    if callable(f) or callable(f2):
        fx = f if callable(f) else (lambda x, y, c=float(f): np.full_like(x, c))
        f2x = f2 if callable(f2) else (lambda x, y, c=float(f2): np.full_like(x, c))
        diff = lambda x, y: f2x(x, y) - fx(x, y)
    else:
        diff = float(f2) - float(f)
    F2 = assemble_load(v2_space, diff)
    return F1, F2


@dataclass
class BlockSystem:
    """Assembled blocks of the saddle system (pre or post elimination)."""

    A1: sp.spmatrix
    A2: sp.spmatrix
    C1: sp.spmatrix
    C2: sp.spmatrix
    F1: np.ndarray
    F2: np.ndarray
    G: np.ndarray = None

    def __post_init__(self):
        if self.G is None:
            self.G = np.zeros(self.C1.shape[0])
        m, n = self.C1.shape
        m2, n2 = self.C2.shape
        if m != m2:
            raise ValueError("C1 and C2 must have the same number of rows")
        if self.A1.shape != (n, n) or self.A2.shape != (n2, n2):
            raise ValueError("block shapes are inconsistent")

    @property
    def n(self):
        return self.A1.shape[0]

    @property
    def n2(self):
        return self.A2.shape[0]

    @property
    def m(self):
        return self.C1.shape[0]


def full_matrix(system):
    """Assemble the symmetric 3x3 block matrix as CSR."""
    return sp.bmat(
        [
            [system.A1, None, system.C1.T],
            [None, system.A2, -system.C2.T],
            [system.C1, -system.C2, None],
        ],
        format="csr",
    )


def apply_dirichlet(system, bc):
    """Symmetric elimination of constrained background dofs.

    Rows and columns of constrained dofs are replaced by identity rows,
    the boundary values are moved to the right hand side (including the
    constraint rows through the C1 columns), and F1 is set to the values
    on the constrained dofs. Returns a new BlockSystem.
    """
    n = system.n
    keep = np.ones(n)
    keep[bc.dofs] = 0.0
    gfull = np.zeros(n)
    gfull[bc.dofs] = bc.values
    D = sp.diags(keep)
    I_c = sp.diags(1.0 - keep)
    A1 = system.A1.tocsr()
    F1 = system.F1 - A1 @ gfull
    F1 = keep * F1
    F1[bc.dofs] = bc.values
    G = system.G - system.C1 @ gfull
    A1 = (D @ A1 @ D + I_c).tocsr()
    C1 = (system.C1 @ D).tocsr()
    return BlockSystem(A1, system.A2, C1, system.C2, F1, system.F2.copy(), G)


class SolverError(RuntimeError):
    """Raised when the factorization fails or the residual is too large."""


@dataclass
class SolutionTriple:
    """Solution fields plus solver diagnostics."""

    u: np.ndarray
    u2: np.ndarray
    lam: np.ndarray
    residual: float
    constraint_res: float


def solve_saddle(system, bc=None, rtol=1e-10):
    """Direct solve of the saddle system.

    Uses a pivoted sparse LU (SuperLU) at every size plus one step of
    iterative refinement. The reported residual is the normwise backward
    error ||K x - b|| / (||K||_inf ||x|| + ||b||); exceeding ``rtol``
    raises SolverError. The constraint residual ||C1 u - C2 u2 - G||_inf
    is also checked (1e-9 absolute).
    """
    if bc is not None:
        system = apply_dirichlet(system, bc)
    K = full_matrix(system).tocsc()
    b = np.concatenate([system.F1, system.F2, system.G])
    try:
        fact = spla.splu(K)
        x = fact.solve(b)
        r = b - K @ x
        x = x + fact.solve(r)
    except (RuntimeError, ValueError) as exc:
        raise SolverError(
            f"factorization failed for blocks n={system.n}, n2={system.n2}, "
            f"m={system.m}: {exc}"
        ) from exc
    r = b - K @ x
    knorm = float(np.max(np.abs(K).sum(axis=1))) if K.nnz else 0.0
    denom = knorm * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
    residual = float(np.linalg.norm(r)) / denom if denom > 0 else 0.0
    if not np.isfinite(residual) or residual > rtol:
        raise SolverError(f"relative residual {residual:.3e} exceeds {rtol:.1e}")
    n, n2 = system.n, system.n2
    u = x[:n]
    u2 = x[n : n + n2]
    lam = x[n + n2 :]
    cres = float(np.max(np.abs(system.C1 @ u - system.C2 @ u2 - system.G)))
    if cres > 1e-9:
        raise SolverError(f"constraint residual {cres:.3e} exceeds 1e-9")
    return SolutionTriple(u, u2, lam, residual, cres)


def _field_errors(space, coeffs, exact, exact_grad, quad):
    """Squared L2 and H1-seminorm errors of a field, element by element."""
    mesh = space.mesh
    J, det, phys = _cell_geometry(mesh, quad)
    phi = el.basis_matrix(space.family, quad.points)
    g = _physical_grads(space.family, mesh, quad, J, det)
    local = coeffs[space.dof_map]
    uh = np.einsum("ml,ql->mq", local, phi)
    guh = np.einsum("ml,mqla->mqa", local, g)
    x = phys[:, :, 0]
    y = phys[:, :, 1]
    ue = np.asarray(exact(x, y), dtype=float)
    gex, gey = exact_grad(x, y)
    l2 = float(np.einsum("q,mq,mq->", quad.weights, det, (uh - ue) ** 2))
    dsq = (guh[:, :, 0] - gex) ** 2 + (guh[:, :, 1] - gey) ** 2
    h1 = float(np.einsum("q,mq,mq->", quad.weights, det, dsq))
    return l2, h1


def error_norms(
    sol,
    vh_space,
    v2_space,
    exact_u,
    exact_u_grad,
    exact_u2,
    exact_u2_grad,
    quad_n=5,
):
    """Error norms against (vectorized) reference fields.

    Reported norms follow the analysis: the background error in H1 is the
    seminorm |u - u_h|_1, the immersed error is the full H1 norm.
    Element-wise quadrature of exactness degree 2*quad_n - 1 (two orders
    above the assembly default).
    """
    quad = el.gauss_square(quad_n)
    l2u, h1u = _field_errors(vh_space, sol.u, exact_u, exact_u_grad, quad)
    l2u2, h1u2 = _field_errors(v2_space, sol.u2, exact_u2, exact_u2_grad, quad)
    return {
        "L2_u": np.sqrt(l2u),
        "H1_u": np.sqrt(h1u),
        "L2_u2": np.sqrt(l2u2),
        "H1_u2": np.sqrt(l2u2 + h1u2),
    }


def project_p0(values_fine, fine_mesh, coarse_mesh):
    """Area-weighted average of nested fine p0 values per coarse cell.

    Requires the fine mesh to be an iterated uniform refinement of the
    coarse one (children of cell c are 4c..4c+3 per level).
    """
    mf = fine_mesh.num_cells
    mc = coarse_mesh.num_cells
    ratio = mf // mc
    if mc * ratio != mf or ratio & (ratio - 1):
        raise ValueError("meshes are not nested uniform refinements")
    areas = fine_mesh.cell_areas()
    num = (np.asarray(values_fine) * areas).reshape(mc, ratio).sum(axis=1)
    den = areas.reshape(mc, ratio).sum(axis=1)
    return num / den


def multiplier_error(lam, lam_ref, t2, t2_ref):
    """Scaled multiplier distance h2 * ||lam - P0(lam_ref)||_{0, Omega2}.

    lam lives on t2 and lam_ref on the finer nested mesh t2_ref; the
    reference is projected by cell averaging. The h2 scaling matches the
    mesh-dependent multiplier norm.
    """
    proj = project_p0(lam_ref, t2_ref, t2)
    d = np.asarray(lam) - proj
    areas = t2.cell_areas()
    return float(t2.h * np.sqrt(np.sum(d * d * areas)))
