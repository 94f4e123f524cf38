"""Independent reference implementations that only the tests use.

``clip_convex`` intersects one pair of general convex polygons, and
``fan_rule`` integrates over a convex polygon by a triangle rule on its
fan triangulation; together they are the oracle of the Green's-theorem
moments of an immersed cell's part of a grid cell, which are taken
without building that part. ``CellMap`` is the bilinear map of one quad
and ``cell_map_inverse`` its scalar Newton inverse; ``locate`` and
``evaluate_grad`` place and differentiate a field one point at a time.
They are the oracles of the batched point location.
``build_radial_mesh`` merges the disk blocks' nodes one at a time through
a dict and projects boundary midpoints one edge at a time; it is the
oracle of the array-only disk and flower builder. ``interpolate`` sets
a space's dofs from a function's values at its dof points, to build
fields whose value the tests know. ``edge_table`` finds a mesh's edges
by a row-wise ``np.unique``; it is the oracle of the one-key edge table.
``null_space_apply`` applies the inverse of the inf-sup test's form W
product by product; it is the oracle of the precomputed operator.
``assemble_reference`` builds stiffness and mass matrices at any rule by
one einsum per term, with batched ``np.linalg.inv`` Jacobians; it is the
oracle of the batched-matmul element matrices. ``cell_points_einsum``
maps a rule's points into every cell by one einsum; the node-by-node sum
must equal it bit for bit. ``field_errors_reference`` measures a field's
errors through per-basis physical gradients; it is the oracle of the
error norms taken from the field's reference gradients.
``solve_saddle_sliced`` runs the null-space solve on H and B sliced from
a CSC copy of the full saddle matrix; it is the oracle of the solve that
builds them from the blocks. ``traced_peak`` measures the peak of the
Python-traced allocations of one call, for the memory bounds.
"""

import tracemalloc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fddlm.coupling import SLIVER_RTOL
from fddlm.element import Q1, QuadratureRule, basis_matrix, cell_geometry, grad_matrix
from fddlm.mesh import QuadMesh, _disk_blocks, refine_uniform
from fddlm.system import (
    NullSpace,
    apply_dirichlet,
    factor_null_space,
    full_matrix,
    interior_columns,
)

# Relative to the bounding-box diagonal of a subject/clipper pair: a vertex
# this close to a clipping line counts as on it. Cut points carry rounding
# errors of a few ulps of the coordinates, far below it; genuine features
# of the meshes are far above.
EDGE_RTOL = 1e-12


def interpolate(space, g):
    """Nodal interpolation of a function into the space.

    g is called with coordinate arrays (x, y). A cell dof takes the value
    at its cell's vertex mean, except a bubble's: where the family's other
    functions do not vanish at the cell node (q1b), it is set to zero.
    """
    x = space.dof_coords[:, 0]
    y = space.dof_coords[:, 1]
    vals = np.asarray(g(x, y), dtype=float)
    vals = np.broadcast_to(vals, x.shape).copy()
    fam = space.family
    if np.count_nonzero(basis_matrix(fam, [0.5, 0.5])) > 1:
        cell = [j for j, (dim, _) in enumerate(fam.entities) if dim == 2]
        vals[space.dof_map[:, cell]] = 0.0
    return vals


def edge_table(cells):
    """Sorted node pairs of a quad mesh's edges in lexicographic order, each
    cell's four edge indices, and the mask of edges that one cell uses."""
    c = np.asarray(cells)
    pairs = np.concatenate([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 3]], c[:, [3, 0]]])
    edges, inv, counts = np.unique(
        np.sort(pairs, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    return edges, inv.reshape(4, -1).T, counts == 1


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


def clip_convex(subject, clipper, tol=EDGE_RTOL):
    """Intersect two convex polygons by Sutherland-Hodgman clipping.

    Parameters
    ----------
    subject : (n, 2) array_like
        Polygon to be clipped, counterclockwise.
    clipper : (m, 2) array_like
        Convex clipping polygon, counterclockwise. Each directed edge
        defines a half plane; the subject is clipped against all of them.
    tol : float
        A vertex whose distance to a clipping line is at most ``tol``
        times the pair's bounding-box diagonal counts as on the line; at
        0, only a vertex exactly on it does.

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
    dtol = tol * scale  # signed-distance tolerance for on-edge points
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


class CellMap:
    """Bilinear map from the unit square onto a straight-edged quad.

    Parameters
    ----------
    quad : (4, 2) array_like
        Physical corner coordinates in counterclockwise order.
    """

    def __init__(self, quad):
        self.quad = np.asarray(quad, dtype=float)
        if self.quad.shape != (4, 2):
            raise ValueError("CellMap expects four corner points")

    def forward(self, pts):
        """Map reference points (k, 2) to physical coordinates."""
        N = basis_matrix(Q1, pts)
        return N @ self.quad

    def jacobian(self, pts):
        """Jacobian dF/dxhat at reference points; (k, 2, 2)."""
        dN = grad_matrix(Q1, pts)
        # J[a, b] = sum_l quad[l, a] * dN[l, b]
        return np.einsum("la,klb->kab", self.quad, dN)


def cell_map_inverse(quad, x, tol=1e-13, maxit=25):
    """Invert the bilinear map of one quad at points (k, 2) by Newton.

    All points iterate together until the largest residual converges;
    points outside the cell get reference coordinates outside [0, 1]^2.
    """
    cm = CellMap(quad)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ref = np.full_like(x, 0.5)
    scale = max(np.abs(cm.quad).max(), 1.0)
    for _ in range(maxit):
        r = x - cm.forward(ref)
        if np.abs(r).max() < tol * scale:
            break
        J = cm.jacobian(ref)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        ref[:, 0] += (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
        ref[:, 1] += (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
    return ref


def _box_candidates(mesh, lo, hi):
    """Cells, ascending, whose bounding box meets the box [lo, hi]."""
    p = mesh.nodes[mesh.cells]
    hit = (p.min(axis=1) <= hi) & (p.max(axis=1) >= lo)
    return [int(c) for c in np.flatnonzero(hit.all(axis=1))]


def locate(mesh, pts, slack=1e-10):
    """Point location one point and one candidate cell at a time.

    Candidates are the cells whose bounding box holds the point, else
    those meeting the box padded by ``slack`` in physical units. The first
    candidate with zero miss wins, else the first with the least miss.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    cells = np.empty(pts.shape[0], dtype=np.int64)
    refs = np.empty_like(pts)
    for k, p in enumerate(pts):
        cand = _box_candidates(mesh, p, p) or _box_candidates(mesh, p - slack, p + slack)
        best = None
        for c in cand:
            ref = cell_map_inverse(mesh.nodes[mesh.cells[c]], p)[0]
            miss = float(np.maximum(np.maximum(-ref, ref - 1.0), 0.0).max())
            if best is None or miss < best[0]:
                best = (miss, c, ref)
            if miss == 0.0:
                break
        if best is None or best[0] > slack:
            raise ValueError(f"point {tuple(p)} not inside the mesh")
        cells[k] = best[1]
        refs[k] = np.clip(best[2], 0.0, 1.0)
    return cells, refs


def evaluate_grad(space, coeffs, pts, locator=None, slack=1e-10):
    """Physical gradient of a field at points, one 2x2 inverse per point."""
    cells, refs = locate(space.mesh, pts, slack)
    coeffs = np.asarray(coeffs, dtype=float)
    grads = np.empty((cells.shape[0], 2))
    dphi = grad_matrix(space.family, refs)
    local = coeffs[space.dof_map[cells]]
    for k in range(cells.shape[0]):
        J = CellMap(space.mesh.nodes[space.mesh.cells[cells[k]]]).jacobian(refs[k : k + 1])[0]
        grads[k] = np.linalg.inv(J).T @ (dphi[k].T @ local[k])
    return grads


class _NodePool:
    """Merge block grid nodes by rounded coordinate keys."""

    def __init__(self, tol):
        self.tol = tol
        self.table = {}
        self.coords = []

    def add(self, p):
        key = (round(p[0] / self.tol), round(p[1] / self.tol))
        idx = self.table.get(key)
        if idx is None:
            idx = len(self.coords)
            self.table[key] = idx
            self.coords.append((float(p[0]), float(p[1])))
        return idx


def _assemble_blocks(blocks, tol):
    pool = _NodePool(tol)
    cells = []
    for grid in blocks:
        nu, nv = grid.shape[0] - 1, grid.shape[1] - 1
        ids = np.empty((nu + 1, nv + 1), dtype=np.int64)
        for i in range(nu + 1):
            for j in range(nv + 1):
                ids[i, j] = pool.add(grid[i, j])
        for i in range(nu):
            for j in range(nv):
                cells.append((ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]))
    return np.asarray(pool.coords, dtype=float), np.asarray(cells, dtype=np.int64)


def _per_edge(project):
    """A (k, 2) projector that maps one boundary midpoint at a time."""
    return lambda pts: np.array([project(p) for p in pts]).reshape(-1, 2)


def _build_disk(spec):
    cx, cy = map(float, spec.center)
    r = float(spec.radius)
    n = int(spec.base_cells)
    nodes, cells = _assemble_blocks(_disk_blocks(cx, cy, r, n), tol=1e-9 * r)

    def project(p):
        d = p - np.array([cx, cy])
        return np.array([cx, cy]) + r * d / np.linalg.norm(d)

    return QuadMesh(nodes, cells, projector=_per_edge(project), spec=spec, level=0)


def _build_flower(spec):
    cx, cy = map(float, spec.center)
    r = float(spec.radius)
    a = float(spec.amplitude)
    lb = int(spec.lobes)
    nodes, cells = _assemble_blocks(
        _disk_blocks(cx, cy, r, int(spec.base_cells)), tol=1e-9 * r
    )
    dx = nodes[:, 0] - cx
    dy = nodes[:, 1] - cy
    th = np.arctan2(dy, dx)
    g = 1.0 + a * np.cos(lb * th)
    nodes = np.column_stack([cx + dx * g, cy + dy * g])

    def project(p):
        d = p - np.array([cx, cy])
        theta = np.arctan2(d[1], d[0])
        rho = r * (1.0 + a * np.cos(lb * theta))
        return np.array([cx, cy]) + rho * d / np.linalg.norm(d)

    return QuadMesh(nodes, cells, projector=_per_edge(project), spec=spec, level=0)


def build_radial_mesh(spec, level=0):
    """Disk or flower mesh at a level, built one node and one edge at a time."""
    m = _build_disk(spec) if spec.kind == "disk" else _build_flower(spec)
    for _ in range(level):
        m = refine_uniform(m)
    return m


def null_space_apply(d, Z, interior, r, N2):
    """W^{-1} of the inf-sup test through the null-space basis Z, product by product.

    With the lift L = E_b D_R^{-1} (D_R = r d on the interior columns b)
    and K_q = Z^T N2 Z: v_p = L y, v = v_p + Z K_q^{-1} (-Z^T N2 v_p) and
    W^{-1} y = L^T N2 v, six sparse products around one solve pair. It is
    the oracle of the precomputed apply G y - B^T K_q^{-1} B y.
    """
    (n2, nq), m = Z.shape, d.size
    lift = sp.csr_matrix((1.0 / (r * d), (interior, np.arange(m))), shape=(n2, m))
    N2 = sp.csr_matrix(N2)
    lu = None
    if nq:
        lu = spla.splu(
            (Z.T @ (N2 @ Z)).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=1,
            options={"SymmetricMode": True},
        )

    def apply_inv(y):
        v = lift @ y
        if lu is not None:
            v = v + Z @ lu.solve(-(Z.T @ (N2 @ v)))
        return lift.T @ (N2 @ v)

    return apply_inv


def assemble_reference(space, stiff, mass, quad):
    """stiff * stiffness + mass * mass matrix of a space under the rule quad."""
    J, det = cell_geometry(space.mesh, quad)
    # physical gradients J^{-T} gradref phi per cell and point
    g = np.einsum("mqba,qlb->mqla", np.linalg.inv(J), grad_matrix(space.family, quad.points))
    phi = basis_matrix(space.family, quad.points)
    ke = np.einsum("q,mq,mqla,mqka->mlk", quad.weights, det, g, g, optimize=True)
    me = np.einsum("q,mq,ql,qk->mlk", quad.weights, det, phi, phi, optimize=True)
    nl = space.family.ndofs
    rows = np.repeat(space.dof_map, nl, axis=1).ravel()
    cols = np.tile(space.dof_map, (1, nl)).ravel()
    vals = (stiff * ke + mass * me).ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(space.ndofs, space.ndofs))


def cell_points_einsum(mesh, quad):
    """Physical points (M, q, 2) of the cell maps at a rule's points."""
    return np.einsum("ql,mla->mqa", basis_matrix(Q1, quad.points), mesh.nodes[mesh.cells])


def field_errors_reference(space, coeffs, exact, exact_grad, quad):
    """Squared L2 and H1-seminorm errors of a field under the rule quad,
    from the physical gradients of every basis function."""
    J, det = cell_geometry(space.mesh, quad)
    wdet = quad.weights * det
    g = np.einsum("mqba,qlb->mqla", np.linalg.inv(J), grad_matrix(space.family, quad.points))
    local = coeffs[space.dof_map]
    uh = np.einsum("ml,ql->mq", local, basis_matrix(space.family, quad.points))
    guh = np.einsum("ml,mqla->mqa", local, g)
    phys = cell_points_einsum(space.mesh, quad)
    x, y = phys[:, :, 0], phys[:, :, 1]
    gex, gey = exact_grad(x, y)
    l2 = float(np.einsum("mq,mq->", wdet, (uh - np.asarray(exact(x, y), dtype=float)) ** 2))
    dsq = (guh[:, :, 0] - gex) ** 2 + (guh[:, :, 1] - gey) ** 2
    return l2, float(np.einsum("mq,mq->", wdet, dsq))


def solve_saddle_sliced(system, bc):
    """Null-space solve with H = K[:N, :N] and B = K[N:, :N] sliced from a
    CSC copy of the full K, one refinement step on that copy. The
    null-space K is factored as the solver factors it (MMD, or the
    dissection of its unknowns' coordinates from ``_ND_MIN_ROWS`` rows on)
    and kept on the ``NullSpace``.

    Needs a private column per row of C2 (elm1, elm2). Returns the
    ``NullSpace`` and (u, u2, lam).
    """
    system = apply_dirichlet(system, bc)
    K = full_matrix(system).tocsc()
    b = np.concatenate([system.F1, system.F2, system.G])
    n, N = system.n, system.n + system.n2
    interior = interior_columns(system.C2) + n
    ns = NullSpace(K[:N, :N], K[N:, :N], interior)
    xy = None if system.coords is None else np.delete(system.coords, interior, axis=0)
    fact = factor_null_space(ns.K, xy)

    def solve(rhs):
        return np.concatenate(ns.solve(fact, rhs[:N], rhs[N:]))

    x = solve(b)
    x = x + solve(b - K @ x)
    return ns, (x[:n], x[n:N], x[N:])


def traced_peak(fn):
    """Peak bytes of the allocations tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
