"""Saddle point system: assembly, Dirichlet elimination, direct solve, errors.

The three-field system couples the background solution u, the immersed
correction u2 and the piecewise constant multiplier lam:

    [ A1   0    C1^T ] [ u  ]   [ F1 ]
    [ 0    A2  -C2^T ] [ u2 ] = [ F2 ]
    [ C1  -C2   0    ] [ lam]   [ G  ]

A1 is the background stiffness weighted by beta, A2 the immersed
stiffness weighted by (beta2 - beta), and G is zero except for boundary
lifting contributions. The matrix is symmetric indefinite.

With elm1 and elm2 each immersed cell owns one dof (its bubble or centre
dof) that only its own multiplier sees; ``NullSpace`` then solves the
system on the null space of its constraint rows. Systems without such
columns (q1q1p0) are solved by a pivoted sparse LU of the full matrix.
Both routes take one step of iterative refinement and report the
backward error of the full matrix.
"""

from dataclasses import dataclass, field

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
    "assemble_matrix",
    "cell_integrals",
    "assemble_load",
    "assemble_A1",
    "assemble_A2",
    "assemble_rhs",
    "full_matrix",
    "apply_dirichlet",
    "interior_columns",
    "NullSpace",
    "solve_saddle",
    "error_norms",
    "project_p0",
    "multiplier_error",
]


# 3x3 Gauss, exact to bidegree 5. The immersed bases have bidegree <= 2
# and the Jacobian determinant of a bilinear cell map bidegree <= 1, so
# the integrands of the load and of C2 (bidegree <= 3) are integrated
# exactly
_RULE = el.gauss_square(3)
# 5x5 Gauss, exact to degree 9: two orders above the assembly rule
_ERROR_RULE = el.gauss_square(5)


def _cell_terms(space, quad, jinv=False, points=False):
    """Quadrature weights times Jacobian determinants (M, q) on the cells of
    a space and, only where asked (else None), the inverse Jacobians
    (M, q, 2, 2) and the physical points (M, q, 2)."""
    J, det = el.cell_geometry(space.mesh, quad)
    wdet = quad.weights * det
    Jinv = phys = None
    if jinv:
        # adj(J) / det, entry-major so that each division runs over (M, q)
        adj = np.stack([J[:, :, 1, 1], -J[:, :, 0, 1], -J[:, :, 1, 0], J[:, :, 0, 0]])
        Jinv = (adj / det).transpose(1, 2, 0).reshape(J.shape)
    if points:
        phys = el.cell_points(space.mesh, quad)
    return wdet, Jinv, phys


def _scatter(space, cellvals):
    nl = space.family.ndofs
    rows = np.repeat(space.dof_map, nl, axis=1).ravel()
    cols = np.tile(space.dof_map, (1, nl)).ravel()
    mat = sp.coo_matrix((cellvals.ravel(), (rows, cols)), shape=(space.ndofs, space.ndofs))
    return mat.tocsr()


# bytes of one block's gradient array in the element matrices, 16 q nl a
# cell: blocks of 1 820 Q1, 1 456 Q1B or 809 Q2 cells. That splits the
# 64^2 disk level and the inf-sup sweep's 1 280-cell Q2 level, but no level
# of the flower study, whose largest is its 1 024-cell background
_BLOCK_BYTES = 2**20


def _element_matrices(space, stiff, mass):
    """Per cell, sum_q w det (stiff grad phi_l . grad phi_k + mass phi_l phi_k);
    (M, nl, nl). A term whose coefficient is zero is not evaluated.

    The cells go through in blocks whose gradient array takes at most
    ``_BLOCK_BYTES``, into one preallocated array; each cell's arithmetic
    is the same in any block, so the result equals a single block's bit
    for bit.
    """
    M, nl = space.dof_map.shape
    wdet, Jinv, _ = _cell_terms(space, _RULE, jinv=bool(stiff))
    step = max(1, _BLOCK_BYTES // (16 * _RULE.weights.size * nl))
    dphi = el.grad_matrix(space.family, _RULE.points)
    phi = el.basis_matrix(space.family, _RULE.points)
    if stiff:
        path = np.einsum_path("mqba,qlb->mqla", Jinv[:step], dphi, optimize=True)[0]
    ke = np.zeros((M, nl, nl))
    for s in range(0, M, step):
        block = slice(s, s + step)
        if stiff:
            # grad phi = J^{-T} gradref phi per cell, point and basis function
            g = np.einsum("mqba,qlb->mqla", Jinv[block], dphi, optimize=path)
            # (m, q, nl, 2) -> (m, nl, 2q): the gradient terms as one batched matmul
            g = g.transpose(0, 2, 1, 3).reshape(g.shape[0], nl, -1)
            ke[block] += (
                g * np.repeat(stiff * wdet[block], 2, axis=1)[:, None, :]
            ) @ g.transpose(0, 2, 1)
        if mass:
            ke[block] += (phi.T * (mass * wdet[block])[:, None, :]) @ phi
    return ke


def assemble_matrix(space, stiff=1.0, mass=0.0):
    """stiff * stiffness + mass * mass matrix of a space (CSR)."""
    # the element matrices come from a helper so that its geometry is freed
    # before _scatter allocates the matrix's index arrays, and in blocks so
    # that the gradient temporaries stay small: built all at once (about
    # 5 MB for Q2 on 1 280 cells), they sat on the heap under the level's
    # later factor, which glibc keeps resident
    return _scatter(space, _element_matrices(space, stiff, mass))


def cell_integrals(space):
    """Integral of every basis function over its cell; (M, nl)."""
    wdet, _, _ = _cell_terms(space, _RULE)
    # einsum, not @: the inf-sup Lanczos count on clustered spectra hangs
    # on the last bit of C2 (elm2, disk base 2, level 4: 71 applications
    # with this summation order, 121 with BLAS's)
    return np.einsum("mq,qj->mj", wdet, el.basis_matrix(space.family, _RULE.points))


def assemble_load(space, f):
    """Load vector of the constant source f."""
    vals = float(f) * cell_integrals(space)
    return np.bincount(space.dof_map.ravel(), weights=vals.ravel(), minlength=space.ndofs)


def assemble_A1(space, beta):
    """Background diffusion block (beta * stiffness on the box mesh)."""
    return assemble_matrix(space, beta)


def assemble_A2(space, beta, beta2):
    """Immersed correction block ((beta2 - beta) * stiffness)."""
    return assemble_matrix(space, beta2 - beta)


def assemble_rhs(vh_space, v2_space, f=1.0, f2=1.0):
    """Right hand sides F1 = (f, v) on the box and F2 = (f2 - f, v2)."""
    return assemble_load(vh_space, f), assemble_load(v2_space, float(f2) - float(f))


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
    """Solution fields plus solver diagnostics.

    ``stats`` holds integer sizes of the solve: ``unknowns`` (rows of the
    full K), ``factored`` (rows of the matrix handed to the sparse LU),
    ``eliminated`` (interior dofs plus multipliers solved for exactly, 0
    when K itself is factored) and ``lu_fill`` (entries SuperLU stores for
    L and U); and ``constraint_rel``, the constraint residual relative to
    the scale of its terms (see ``solve_saddle``).
    """

    u: np.ndarray
    u2: np.ndarray
    lam: np.ndarray
    residual: float
    constraint_res: float
    stats: dict = field(default_factory=dict)


def interior_columns(C2):
    """Per row of C2, a column that no other row touches; None if a row has none.

    Such a column is a dof of u2 that only one multiplier sees (the q1b
    bubble or the q2 centre dof of its cell). Where a row owns several,
    the highest column index is taken.
    """
    C = sp.coo_matrix(C2)
    C.sum_duplicates()
    nz = C.data != 0
    rows, cols = C.row[nz], C.col[nz]
    single = np.bincount(cols, minlength=C.shape[1])[cols] == 1
    own = np.full(C.shape[0], -1)
    np.maximum.at(own, rows[single], cols[single])
    return None if np.any(own < 0) else own


# SuperLU options of the null-space factor: a minimum degree ordering of
# A + A^T and no pivoting. That is stable on the SPD Z^T N2 Z of the
# inf-sup test, but the saddle's K is indefinite in case 3, where
# A2 = (beta2 - beta) * stiffness < 0; there ``solve_saddle``'s refinement
# step and backward-error gate make it safe. relax=1: SuperLU's default
# relaxed supernodes pad L and U with stored zeros here (up to 2.2x the
# fill), which cost factor time and memory
_UNPIVOTED_LU = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    relax=1,
    options={"SymmetricMode": True},
)


class NullSpace:
    """Null-space method for [[H, B^T], [B, 0]] (Benzi, Golub & Liesen 2005, section 6).

    Row i of B owns the private column ``interior[i]``, which no other
    row touches. With b those columns, q the rest and d the entries of B
    on b (D = diag(d)), Z = [I on q; -D^-1 B_q on b] spans ker B and
    P = E_b D^-1 is a right inverse of B. Built once: Z, P (CSR),
    K = Z^T H Z (CSC, for the caller to factor), M = Z^T H P and
    G = P^T H P (CSR). K is nonsingular exactly when H is nonsingular
    on ker B. ``solve`` reads Z, P, M and G only, so a caller may delete
    K once factored (``solve_saddle`` does).
    """

    def __init__(self, H, B, interior):
        m, N = B.shape
        B = sp.csc_matrix(B)
        q = np.setdiff1d(np.arange(N), interior)
        d = np.asarray(B[:, interior].sum(axis=0)).ravel()
        E = (sp.diags(1.0 / d) @ -B[:, q]).tocoo()
        nq = q.size
        self.Z = sp.csr_matrix(
            (
                np.concatenate([np.ones(nq), E.data]),
                (np.concatenate([q, interior[E.row]]), np.concatenate([np.arange(nq), E.col])),
            ),
            shape=(N, nq),
        )
        self.P = sp.csr_matrix((1.0 / d, (interior, np.arange(m))), shape=(N, m))
        H = sp.csr_matrix(H)
        HP = H @ self.P
        self.K = (self.Z.T @ (H @ self.Z)).tocsc()
        self.M = (self.Z.T @ HP).tocsr()
        self.G = (self.P.T @ HP).tocsr()

    def solve(self, fact, f, g):
        """(x, lam) with H x + B^T lam = f and B x = g, given ``fact`` of K.

        x = Z v + P g with K v = Z^T f - M g, and lam = P^T f - M^T v - G g.
        """
        v = fact.solve(self.Z.T @ f - self.M @ g)
        x = self.Z @ v + self.P @ g
        return x, self.P.T @ f - self.M.T @ v - self.G @ g


def _inf_norm(A):
    """||A||_inf of a sparse matrix. The row sums come from a product with
    ones, one term at a time in column order; a CSR ``sum(axis=1)`` adds
    pairwise and can differ in the last bit."""
    return float(np.max(abs(A) @ np.ones(A.shape[1]))) if A.nnz else 0.0


def solve_saddle(system, bc=None, rtol=1e-10):
    """Direct solve of the saddle system.

    When every row of C2 owns a column that no other row touches (elm1 and
    elm2: the cell's bubble or centre dof, see ``interior_columns``), only
    Z^T blkdiag(A1, A2) Z of ``NullSpace``, in u and the other u2 dofs, is
    factored, without pivoting, and dropped from the ``NullSpace`` once
    factored; ``NullSpace`` takes blkdiag(A1, A2) and [C1, -C2] straight
    from the blocks. Otherwise (q1q1p0 on any
    non-trivial mesh) a CSC copy of the full K is factored by a pivoted
    sparse LU. Either way the full K, kept in CSR only, serves one step of
    iterative refinement and the reported residual, the normwise backward
    error ||K x - b|| / (||K||_inf ||x|| + ||b||); exceeding ``rtol``
    raises SolverError, as does a failed factorization or a non-finite
    result. The constraint residual ||C1 u - C2 u2 - G||_inf is also
    checked (1e-9 absolute), and reported relative to
    ||C1||_inf ||u||_inf + ||C2||_inf ||u2||_inf + ||G||_inf as
    ``stats["constraint_rel"]``. When A2 = (beta2 - beta) * stiffness has
    no nonzero value and n2 > m, K is singular and SolverError is raised
    before factoring.

    ``system`` is rebound to the eliminated blocks, so where the caller
    keeps no reference to it (``runner.solve_level``), the un-eliminated
    A1, C1, F1 and G are freed before the factor runs.
    """
    if bc is not None:
        system = apply_dirichlet(system, bc)
    if system.n2 > system.m and system.A2.count_nonzero() == 0:
        raise SolverError(
            "A2 = (beta2 - beta) * stiffness is zero: with beta2 = beta the "
            "saddle matrix is singular"
        )
    b = np.concatenate([system.F1, system.F2, system.G])
    interior = interior_columns(system.C2)
    N = system.n + system.n2
    try:
        if interior is None:
            K = full_matrix(system)
            fact = spla.splu(K.tocsc())
            solve = fact.solve
        else:
            ns = NullSpace(
                sp.block_diag((system.A1, system.A2), format="csr"),
                sp.hstack([system.C1, -system.C2], format="csr"),
                interior + system.n,
            )
            fact = spla.splu(ns.K, **_UNPIVOTED_LU)
            # the factorization's workspace is the solve's memory peak; the
            # factor holds its own copy of the null-space K, which goes
            # before the full K is built next to the factor
            del ns.K
            K = full_matrix(system)

            def solve(rhs):
                return np.concatenate(ns.solve(fact, rhs[:N], rhs[N:]))

        x = solve(b)
        r = b - K @ x
        x = x + solve(r)
    except (RuntimeError, ValueError) as exc:
        raise SolverError(
            f"factorization failed for blocks n={system.n}, n2={system.n2}, "
            f"m={system.m}: {exc}"
        ) from exc
    stats = {
        "unknowns": K.shape[0],
        "factored": fact.shape[0],
        "eliminated": 0 if interior is None else 2 * system.m,
        "lu_fill": int(fact.nnz),
    }
    r = b - K @ x
    denom = _inf_norm(K) * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
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
    scale = (
        _inf_norm(system.C1) * float(np.max(np.abs(u)))
        + _inf_norm(system.C2) * float(np.max(np.abs(u2)))
        + float(np.max(np.abs(system.G)))
    )
    stats["constraint_rel"] = cres / scale if scale > 0 else 0.0
    return SolutionTriple(u, u2, lam, residual, cres, stats)


def _field_errors(space, coeffs, exact, exact_grad):
    """Squared L2 and H1-seminorm errors of a field, element by element."""
    wdet, Jinv, phys = _cell_terms(space, _ERROR_RULE, jinv=True, points=True)
    # the field's values and reference gradients at every point in one GEMM
    # against the (nl, 3q) table of basis values and reference gradients
    pts = _ERROR_RULE.points
    table = np.concatenate(
        [el.basis_matrix(space.family, pts)[:, :, None], el.grad_matrix(space.family, pts)],
        axis=2,
    )
    field = coeffs[space.dof_map] @ table.transpose(1, 2, 0).reshape(space.family.ndofs, -1)
    uh, dx, dy = field.reshape(wdet.shape[0], 3, -1).transpose(1, 0, 2)
    # grad u_h = J^{-T} gradref u_h
    gx = Jinv[:, :, 0, 0] * dx + Jinv[:, :, 1, 0] * dy
    gy = Jinv[:, :, 0, 1] * dx + Jinv[:, :, 1, 1] * dy
    x = phys[:, :, 0]
    y = phys[:, :, 1]
    ue = np.asarray(exact(x, y), dtype=float)
    gex, gey = exact_grad(x, y)
    l2 = float(np.einsum("mq,mq->", wdet, (uh - ue) ** 2))
    h1 = float(np.einsum("mq,mq->", wdet, (gx - gex) ** 2 + (gy - gey) ** 2))
    return l2, h1


def error_norms(sol, vh_space, v2_space, exact_u, exact_u_grad, exact_u2, exact_u2_grad):
    """Error norms against (vectorized) reference fields.

    Reported norms follow the analysis: the background error in H1 is the
    seminorm |u - u_h|_1, the immersed error is the full H1 norm.
    """
    l2u, h1u = _field_errors(vh_space, sol.u, exact_u, exact_u_grad)
    l2u2, h1u2 = _field_errors(v2_space, sol.u2, exact_u2, exact_u2_grad)
    return {
        "L2_u": np.sqrt(l2u),
        "H1_u": np.sqrt(h1u),
        "L2_u2": np.sqrt(l2u2),
        "H1_u2": np.sqrt(l2u2 + h1u2),
    }


def project_p0(values_fine, fine_mesh, coarse_mesh):
    """Area-weighted average of nested fine p0 values per coarse cell.

    Requires the fine mesh to be an iterated uniform refinement of the
    coarse one (children of cell c are 4c..4c+3 per level), checked by the
    invariants of ``refine_uniform``: the fine nodes start with the coarse
    nodes, and the first descendant of coarse cell c, fine cell ratio * c,
    shares its first node.
    """
    mf = fine_mesh.num_cells
    mc = coarse_mesh.num_cells
    ratio = mf // mc
    nested = (
        mc * ratio == mf
        and ratio == 4 ** ((ratio.bit_length() - 1) // 2)
        and np.array_equal(fine_mesh.nodes[: coarse_mesh.num_nodes], coarse_mesh.nodes)
        and np.array_equal(fine_mesh.cells[::ratio, 0], coarse_mesh.cells[:, 0])
    )
    if not nested:
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
