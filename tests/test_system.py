"""Assembly oracles, Dirichlet elimination and the saddle solver."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

import fddlm.runner as runner_module
import fddlm.system as system_module
from fddlm import problems
from fddlm.coupling import assemble_C1, assemble_C2, build_intersections
from fddlm.element import Q1, Q1B, Q2, gauss_square, grad_matrix
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.runner import ELEMENTS, FEFieldRef, solve_level, study_meshes
from fddlm.space import build_space, dirichlet_bc
from fddlm.system import (
    BlockSystem,
    NullSpace,
    SolutionTriple,
    SolverError,
    apply_dirichlet,
    assemble_A1,
    assemble_A2,
    assemble_load,
    assemble_matrix,
    assemble_rhs,
    error_norms,
    full_matrix,
    interior_columns,
    multiplier_error,
    project_p0,
    solve_saddle,
)
from oracles import (
    CellMap,
    assemble_reference,
    field_errors_reference,
    interpolate,
    solve_saddle_sliced,
    traced_peak,
)

# symbolic Q1 stiffness of the unit cell: diagonal 2/3, edge neighbours
# -1/6, diagonal neighbours -1/3
K_UNIT = np.array(
    [
        [2 / 3, -1 / 6, -1 / 3, -1 / 6],
        [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
        [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
        [-1 / 6, -1 / 3, -1 / 6, 2 / 3],
    ]
)


def unit_cell_space(fam=Q1):
    m = build_mesh(DomainSpec("square_patch", bounds=(0, 1, 0, 1), base_cells=1))
    return build_space(m, fam)


def element_matrix(space, mat):
    """Global matrix of a one-cell space in local (counterclockwise) order."""
    dm = space.dof_map[0]
    return mat.toarray()[np.ix_(dm, dm)]


def toy_system(element="elm1", beta=1.0, beta2=10.0, f=1.0, f2=1.0):
    """The 4x4-on-[0,2]^2 / 2x2-on-[0.5,1.5]^2 toy pairing."""
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    return coupled_system(t, t2, element, beta, beta2, f, f2)


def coupled_system(t, t2, element, beta, beta2, f=1.0, f2=1.0):
    """Assembled blocks and spaces of one mesh pair, as solve_level builds them."""
    fam_h, fam_2 = ELEMENTS[element]
    vh = build_space(t, fam_h)
    v2 = build_space(t2, fam_2)
    table = build_intersections(t2, t)
    sysm = BlockSystem(
        assemble_A1(vh, beta),
        assemble_A2(v2, beta, beta2),
        assemble_C1(table, vh),
        assemble_C2(v2),
        *assemble_rhs(vh, v2, f, f2),
        coords=np.concatenate([vh.dof_coords, v2.dof_coords]),
    )
    return sysm, vh, v2


def test_q1_unit_stiffness_matrix():
    s = unit_cell_space()
    K = element_matrix(s, assemble_matrix(s))
    assert K == pytest.approx(K_UNIT, abs=1e-13)
    assert K.sum(axis=1) == pytest.approx(np.zeros(4), abs=1e-14)
    K10 = element_matrix(s, assemble_matrix(s, 10.0))
    assert K10 == pytest.approx(10.0 * K_UNIT, abs=1e-12)


def test_stiffness_matches_adaptive_quadrature():
    # independent integration path for one distorted bilinear cell
    quadpts = np.array([[0.0, 0.0], [1.2, 0.1], [1.3, 1.1], [-0.1, 0.9]])
    m = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=1))
    m.nodes[:] = quadpts[[0, 1, 3, 2]]  # node order of the structured grid
    s = build_space(m, Q1)
    K = assemble_reference(s, 1.0, 0.0, gauss_square(6)).toarray()
    cm = CellMap(m.nodes[m.cells[0]])
    il, jl = 0, 2

    def integrand(eta, xi):
        p = np.array([[xi, eta]])
        J = cm.jacobian(p)[0]
        Jit = np.linalg.inv(J).T
        g = grad_matrix(Q1, p)[0]
        return float((Jit @ g[il]) @ (Jit @ g[jl]) * np.linalg.det(J))

    ref, err = dblquad(integrand, 0, 1, 0, 1, epsabs=1e-12, epsrel=1e-12)
    di = s.dof_map[0, il]
    dj = s.dof_map[0, jl]
    assert K[di, dj] == pytest.approx(ref, abs=1e-9)
    # the assembly rule (3x3 Gauss) stays close on mildly distorted cells
    K3 = assemble_matrix(s).toarray()
    assert abs(K3[di, dj] - ref) < 2e-4


def test_mass_matrix_oracle():
    s = unit_cell_space()
    M = element_matrix(s, assemble_matrix(s, 0.0, 1.0))
    expect = np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
    ) / 36.0
    assert M == pytest.approx(expect, abs=1e-14)


def test_load_oracles():
    s = unit_cell_space()
    assert assemble_load(s, 1.0) == pytest.approx(np.full(4, 0.25), abs=1e-14)
    assert assemble_load(s, -3.0) == pytest.approx(np.full(4, -0.75), abs=1e-14)
    # on the curved disk the bases are a partition of unity, so the load
    # of f = 1 sums to the area of the (straight-edged) cells
    t2 = build_mesh(DomainSpec("disk", base_cells=2), 1)
    area = t2.cell_areas().sum()
    for fam in (Q1, Q2):
        total = assemble_load(build_space(t2, fam), 1.0).sum()
        assert abs(total - area) <= 1e-13 * area


def test_a2_scaling_and_kernel():
    s = unit_cell_space()
    A0 = assemble_A2(s, 1.0, 1.0)
    assert A0.nnz == 0 or np.abs(A0.toarray()).max() == 0.0
    A9 = element_matrix(s, assemble_A2(s, 1.0, 10.0))
    assert A9 == pytest.approx(9.0 * K_UNIT, abs=1e-12)
    # case 3 sign: beta2 - beta < 0
    A_neg = element_matrix(s, assemble_A2(s, 10.0, 1.0))
    assert A_neg == pytest.approx(-9.0 * K_UNIT, abs=1e-12)
    assert np.abs(A9 @ np.ones(4)).max() < 1e-13


def test_rhs_difference_form():
    sysm, vh, v2 = toy_system(f=1.0, f2=1.0)
    assert np.all(sysm.F2 == 0.0)
    F1a, F2a = assemble_rhs(vh, v2, 1.0, 3.0)
    F1b, F2b = assemble_rhs(vh, v2, 0.0, 0.0)
    assert np.all(F1b == 0.0) and np.all(F2b == 0.0)
    assert F2a == pytest.approx(2.0 * assemble_load(v2, 1.0), rel=1e-13)


def test_full_matrix_symmetry():
    sysm, vh, _ = toy_system()
    K = full_matrix(sysm)
    assert np.abs((K - K.T).toarray()).max() < 1e-13
    elim = apply_dirichlet(sysm, dirichlet_bc(vh))
    Ke = full_matrix(elim)
    assert np.abs((Ke - Ke.T).toarray()).max() < 1e-13


def test_dirichlet_rows_and_values():
    sysm, vh, _ = toy_system()
    g = lambda x, y: x - y
    bc = dirichlet_bc(vh, g)
    elim = apply_dirichlet(sysm, bc)
    A1 = elim.A1.toarray()
    for d in bc.dofs:
        row = np.zeros(sysm.n)
        row[d] = 1.0
        assert A1[d] == pytest.approx(row, abs=1e-15)
    assert np.abs(elim.C1.toarray()[:, bc.dofs]).max() == 0.0
    sol = solve_saddle(elim)
    assert sol.u[bc.dofs] == pytest.approx(bc.values, abs=1e-12)


def test_zero_rhs_gives_zero_solution():
    sysm, vh, _ = toy_system(f=0.0, f2=0.0)
    sol = solve_saddle(sysm, dirichlet_bc(vh))
    assert np.abs(sol.u).max() < 1e-12
    assert np.abs(sol.u2).max() < 1e-12
    assert np.abs(sol.lam).max() < 1e-12


def test_solver_matches_dense_brute_force():
    # every toy cell owns a private dof (elm1: its bubble, q1q1p0: its patch
    # corner), so both systems are solved through the condensed route
    for element in ("elm1", "q1q1p0"):
        sysm, vh, _ = toy_system(element)
        elim = apply_dirichlet(sysm, dirichlet_bc(vh))
        sol = solve_saddle(elim)
        assert sol.stats["eliminated"] == 2 * elim.m
        K = full_matrix(elim).toarray()
        b = np.concatenate([elim.F1, elim.F2, elim.G])
        x = np.linalg.solve(K, b)
        got = np.concatenate([sol.u, sol.u2, sol.lam])
        assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-11
        assert sol.residual <= 1e-10
        assert sol.constraint_res <= 1e-9


def test_scaling_equivariance():
    base, vh, _ = toy_system(f=1.0, f2=2.0)
    scaled, _, _ = toy_system(f=3.0, f2=6.0)
    bc = dirichlet_bc(vh)
    s1 = solve_saddle(base, bc)
    s3 = solve_saddle(scaled, bc)
    for a, b in ((s1.u, s3.u), (s1.u2, s3.u2), (s1.lam, s3.lam)):
        assert 3.0 * a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_relative_constraint_residual_is_scale_free():
    # loads and boundary data scaled by 1e6 scale the solution and the
    # absolute constraint residual alike; the relative one stays at rounding
    exact = problems.exact_solution(3, 1)
    t, t2 = benchmark_meshes(3, 1)
    sols = []
    for s in (1.0, 1e6):
        sysm, vh, _ = coupled_system(t, t2, "elm1", 1.0, 10.0, f=s, f2=s)
        bc = dirichlet_bc(vh, lambda x, y: s * exact["u1"](x, y))
        sol = solve_saddle(sysm, bc)
        elim = apply_dirichlet(sysm, bc)
        norm = [np.abs(C.toarray()).sum(axis=1).max() for C in (elim.C1, elim.C2)]
        scale = (
            norm[0] * np.abs(sol.u).max() + norm[1] * np.abs(sol.u2).max() + np.abs(elim.G).max()
        )
        assert sol.stats["constraint_rel"] == pytest.approx(sol.constraint_res / scale, rel=1e-12)
        assert sol.stats["constraint_rel"] <= 1e-14
        sols.append(sol)
    assert sols[1].constraint_res > 1e4 * sols[0].constraint_res


def test_energy_identity():
    sysm, vh, _ = toy_system(beta=1.0, beta2=10.0)
    elim = apply_dirichlet(sysm, dirichlet_bc(vh))
    sol = solve_saddle(elim)
    lhs = sol.u @ (elim.A1 @ sol.u) + sol.u2 @ (elim.A2 @ sol.u2)
    rhs = elim.F1 @ sol.u + elim.F2 @ sol.u2
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_matching_meshes_decouple_in_the_equal_coefficient_limit():
    # with f = f2 and beta2 -> beta the multiplier vanishes and u solves
    # the plain one-mesh problem; beta2 = beta exactly would make the
    # block matrix singular, so probe the limit with a small gap
    delta = 1e-8
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    vh = build_space(t, Q1)
    v2 = build_space(t2, Q1)
    table = build_intersections(t2, t)
    sysm = BlockSystem(
        assemble_A1(vh, 1.0),
        assemble_A2(v2, 1.0, 1.0 + delta),
        assemble_C1(table, vh),
        assemble_C2(v2),
        *assemble_rhs(vh, v2, 1.0, 1.0),
    )
    bc = dirichlet_bc(vh)
    sol = solve_saddle(sysm, bc)
    assert np.abs(sol.lam).max() < 1e-6
    # u agrees with the standalone Galerkin solution of the box problem
    elim = apply_dirichlet(
        BlockSystem(
            sysm.A1, sysm.A2, sysm.C1, sysm.C2, sysm.F1.copy(), sysm.F2.copy()
        ),
        bc,
    )
    u0 = spla.spsolve(elim.A1.tocsc(), elim.F1)
    assert np.abs(sol.u - u0).max() < 1e-6
    # constraint ties the two fields together exactly
    assert np.abs(sysm.C1 @ sol.u - sysm.C2 @ sol.u2).max() < 1e-9


@pytest.mark.parametrize("element", ["elm1", "q1q1p0"])
@pytest.mark.parametrize("route", ["condensed", "full"])
def test_equal_coefficients_raise_before_factoring(element, route, monkeypatch):
    # beta2 = beta makes A2 vanish, and K has the kernel (0, ker C2, 0)
    if route == "full":
        monkeypatch.setattr(system_module, "interior_columns", lambda C2: None)
    sysm, vh, _ = toy_system(element, beta=1.0, beta2=1.0)
    with pytest.raises(SolverError, match="beta2 = beta"):
        solve_saddle(sysm, dirichlet_bc(vh))


def benchmark_meshes(example, level):
    """Background and immersed meshes of a benchmark study level (base 16, ratio 1)."""
    bg = problems.background_spec(example, 16)
    base = problems.immersed_base_for_ratio(example, build_mesh(bg, 0).h, 1.0)
    return build_mesh(bg, level), build_mesh(problems.immersed_spec(example, base), level)


@pytest.mark.parametrize("element", ["elm1", "elm2"])
def test_interior_columns_are_the_cell_centre_dofs(element):
    toy = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    meshes = [toy] + [benchmark_meshes(ex, lvl)[1] for ex in (3, 4) for lvl in (0, 1, 2)]
    for t2 in meshes:
        v2 = build_space(t2, ELEMENTS[element][1])
        got = interior_columns(assemble_C2(v2))
        # on the toy patch each cell also owns a corner node; the highest
        # private column wins
        assert np.array_equal(got, v2.dof_map[:, -1])


def test_q1q1p0_routes():
    # on the 2x2 toy patch each corner node is private to its cell and is
    # eliminated; on the disk no cell owns one, so K itself is factored
    _, _, v2 = toy_system("q1q1p0")
    got = interior_columns(assemble_C2(v2))
    corners = np.flatnonzero(np.bincount(v2.dof_map.ravel()) == 1)
    assert np.array_equal(np.sort(got), corners)
    assert all(got[c] in v2.dof_map[c] for c in range(4))
    for lvl in (0, 1, 2):
        t2 = benchmark_meshes(3, lvl)[1]
        assert interior_columns(assemble_C2(build_space(t2, Q1))) is None
    stats = solve_level(*benchmark_meshes(3, 0), "q1q1p0", 1.0, 10.0).sol.stats
    assert stats["eliminated"] == 0 and stats["factored"] == stats["unknowns"]


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("element", ["elm1", "elm2"])
@pytest.mark.parametrize("example", [3, 4])
def test_condensed_route_matches_full_factorization(example, element, case, monkeypatch):
    beta, beta2 = problems.CASES[case]
    exact = problems.exact_solution(example, case)
    tol = 1e-8 if case == 2 else 1e-10
    for level in (0, 1):
        t, t2 = benchmark_meshes(example, level)
        sysm, vh, _ = coupled_system(t, t2, element, beta, beta2)
        bc = dirichlet_bc(vh, exact["u1"] if exact else None)
        # without the refinement step the backward error reaches 6e-15 here
        sol = solve_saddle(sysm, bc, rtol=1e-15)
        with monkeypatch.context() as mp:
            mp.setattr(system_module, "interior_columns", lambda C2: None)
            ref = solve_saddle(sysm, bc)
        assert ref.stats["eliminated"] == 0 and ref.stats["factored"] == ref.stats["unknowns"]
        assert sol.stats["unknowns"] == ref.stats["unknowns"]
        assert sol.stats["eliminated"] == 2 * sysm.m
        assert sol.stats["factored"] == sol.stats["unknowns"] - sol.stats["eliminated"]
        assert 0 < sol.stats["lu_fill"] < ref.stats["lu_fill"]
        for got, want in ((sol.u, ref.u), (sol.u2, ref.u2), (sol.lam, ref.lam)):
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def check_blocks_equal_the_sliced_matrix(element, route, monkeypatch):
    # blkdiag(A1, A2) and [C1, -C2] taken from the blocks hold the same
    # arrays as the slices of the full K, so the solve keeps every bit; the
    # oracle factors through the same ordering, which runs on both or on
    # neither
    built, ordered = [], []
    monkeypatch.setattr(system_module, "_ND_MIN_ROWS", 0 if route == "dissection" else 10**9)
    order = system_module.dissection_order

    def counted(*args):
        ordered.append(1)
        return order(*args)

    monkeypatch.setattr(system_module, "dissection_order", counted)

    class Recorded(NullSpace):
        def __init__(self, *args):
            super().__init__(*args)
            # the solve drops K once factored: keep what was built
            built.append(SimpleNamespace(**vars(self)))

    monkeypatch.setattr(system_module, "NullSpace", Recorded)
    exact = problems.exact_solution(3, 3)
    t, t2 = benchmark_meshes(3, 1)
    sysm, vh, _ = coupled_system(t, t2, element, *problems.CASES[3])
    bc = dirichlet_bc(vh, exact["u1"])
    sol = solve_saddle(sysm, bc)
    ref, fields = solve_saddle_sliced(sysm, bc)
    (ns,) = built
    for name in ("K", "M", "G", "Z", "P"):
        got, want = getattr(ns, name), getattr(ref, name)
        assert got.format == want.format
        for arr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, arr), getattr(want, arr))
    for got, want in zip((sol.u, sol.u2, sol.lam), fields):
        assert np.array_equal(got, want)
    assert len(ordered) == (2 if route == "dissection" else 0)


@pytest.mark.parametrize("element", ["elm1", "elm2"])
def test_null_space_from_blocks_equals_the_sliced_matrix(element, monkeypatch):
    check_blocks_equal_the_sliced_matrix(element, "mmd", monkeypatch)


@pytest.mark.parametrize("element", ["elm1", "elm2"])
def test_dissected_null_space_from_blocks_equals_the_sliced_matrix(element, monkeypatch):
    check_blocks_equal_the_sliced_matrix(element, "dissection", monkeypatch)


@pytest.mark.parametrize("element", ["elm1", "elm2"])
def test_lu_fill_counts_l_and_u_on_the_condensed_route(element, monkeypatch):
    # relax=1 pads no supernode, so SuperLU's stored entries are L's plus U's
    factors = []
    splu = spla.splu

    def keep(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(system_module.spla, "splu", keep)
    for level in (0, 1):
        stats = solve_level(*benchmark_meshes(4, level), element, 1.0, 10.0).sol.stats
        assert stats["lu_fill"] == factors[-1].L.nnz + factors[-1].U.nnz


@st.composite
def point_graphs(draw):
    """Points, many of them on shared lines, and a sparse symmetric pattern
    (CSC, with its diagonal) on them."""
    n = draw(st.integers(1, 120))
    scale = draw(st.sampled_from([1.0, 0.3, 1e-3]))
    ix = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    iy = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    xy = scale * np.column_stack([ix, iy]).astype(float)
    if draw(st.booleans()):
        jitter = draw(st.lists(st.floats(0, 0.999), min_size=2 * n, max_size=2 * n))
        xy += scale * np.reshape(jitter, (n, 2))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    A = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    return xy, (A + A.T + sp.eye(n)).tocsc()


@settings(max_examples=150, deadline=None)
@given(point_graphs())
def test_dissection_separates_every_split_and_orders_parts_first(graph):
    xy, A = graph
    n = xy.shape[0]
    perm = system_module.dissection_order(xy, A)
    assert np.array_equal(np.sort(perm), np.arange(n))
    code, sep, depth = system_module._dissect(xy, A)
    assert code.min() >= 0 and code.max() < 2**depth
    # the split of an edge's endpoints is at the first bit where their box
    # codes differ; with that split's separator (and those above) removed,
    # no edge may join its two halves
    A = sp.coo_matrix(A)
    for i, j in zip(A.row, A.col):
        split = depth - (int(code[i]) ^ int(code[j])).bit_length()
        if split < depth:
            assert min(sep[i], sep[j]) <= split
    # a separator comes after every free unknown of its subtree
    pos = np.argsort(perm)
    for v in np.flatnonzero(sep < depth):
        shift = depth - sep[v]
        below = (code >> shift == code[v] >> shift) & (sep > sep[v])
        assert np.all(pos[below] < pos[v])


def test_dissection_fill_on_the_disk_64_level():
    # the 64^2 disk level at immersed base 6, the cut pattern of the
    # benchmark's nonzero seeds; MMD stores 1 201 136 L+U entries there
    t = build_mesh(problems.background_spec(3, 16), 2)
    t2 = build_mesh(problems.immersed_spec(3, 6), 2)
    stats = solve_level(t, t2, "elm1", *problems.CASES[1]).sol.stats
    assert stats["factored"] >= system_module._ND_MIN_ROWS
    assert stats["lu_fill"] <= 1_100_000


@pytest.mark.parametrize(
    "element, case, rtol",
    # 1e-6 on elm2 case 2 (beta2 = 1e4), the benchmark's pinned tolerance:
    # there the error norms move by up to 2.2e-9
    [("elm1", 1, 1e-9), ("elm1", 3, 1e-9), ("elm2", 2, 1e-6)],
)
def test_dissection_route_matches_the_mmd_route(element, case, rtol, monkeypatch):
    studies = {}
    for route, limit in (("mmd", 10**9), ("dissection", 0)):
        monkeypatch.setattr(system_module, "_ND_MIN_ROWS", limit)
        studies[route] = runner_module.run_study(3, case, element, 2, base_cells=16)
    mmd, nd = studies["mmd"], studies["dissection"]
    assert [s["lu_fill"] for s in mmd.stats] != [s["lu_fill"] for s in nd.stats]
    assert max(nd.residuals) <= 1e-15
    for col, want in mmd.errors.items():
        np.testing.assert_allclose(nd.errors[col], want, rtol=rtol)


def test_a_dissected_null_space_needs_coordinates(monkeypatch):
    monkeypatch.setattr(system_module, "_ND_MIN_ROWS", 0)
    sysm, vh, _ = toy_system()
    sysm.coords = None
    with pytest.raises(ValueError, match="coords"):
        solve_saddle(sysm, dirichlet_bc(vh))
    monkeypatch.setattr(system_module, "_ND_MIN_ROWS", 10**9)
    assert solve_saddle(sysm, dirichlet_bc(vh)).residual <= 1e-10


class _Spla:
    """Stands in for ``fddlm.system.spla`` with its ``splu`` replaced, as
    the benchmark's tracer wraps it."""

    def __init__(self, splu):
        self.splu = splu

    def __getattr__(self, name):
        return getattr(spla, name)


def check_solve_level_frees(element, route, monkeypatch):
    # solve_level hands its blocks straight to solve_saddle, whose Dirichlet
    # elimination then drops the last references to the un-eliminated A1
    # and C1 before the factor; the null-space K goes once factored, before
    # the full K is built next to the factor, and on the dissection route
    # the unpermuted K goes before the factor of the permuted one
    assembled, factored, dead, unpermuted = {}, [], {}, []
    monkeypatch.setattr(system_module, "_ND_MIN_ROWS", 0 if route == "dissection" else 10**9)
    if route == "dissection":
        order = system_module.dissection_order

        def kept(xy, K):
            unpermuted.append(weakref.ref(K))
            return order(xy, K)

        monkeypatch.setattr(system_module, "dissection_order", kept)
    for name in ("assemble_A1", "assemble_C1"):

        def keep(*args, _fn=getattr(runner_module, name), _name=name):
            out = _fn(*args)
            assembled[_name] = weakref.ref(out)
            return out

        monkeypatch.setattr(runner_module, name, keep)

    def splu(K, **kwargs):
        gc.collect()
        dead["A1, C1 at the factor"] = [ref() is None for ref in assembled.values()]
        dead["unpermuted K at the factor"] = [ref() is None for ref in unpermuted]
        factored.append(weakref.ref(K))
        return spla.splu(K, **kwargs)

    full_matrix = system_module.full_matrix

    def checked_full_matrix(system):
        gc.collect()
        dead["K at the full matrix"] = factored[0]() is None
        return full_matrix(system)

    monkeypatch.setattr(system_module, "spla", _Spla(splu))
    monkeypatch.setattr(system_module, "full_matrix", checked_full_matrix)
    solve_level(*benchmark_meshes(3, 0), element, *problems.CASES[1])
    assert len(factored) == 1
    assert dead == {
        "A1, C1 at the factor": [True, True],
        "unpermuted K at the factor": [True] * (route == "dissection"),
        "K at the full matrix": True,
    }


@pytest.mark.parametrize("element", ["elm1", "elm2"])
def test_solve_level_frees_what_the_solve_has_eliminated(element, monkeypatch):
    check_solve_level_frees(element, "mmd", monkeypatch)


@pytest.mark.parametrize("element", ["elm1", "elm2"])
def test_dissected_solve_frees_the_unpermuted_k(element, monkeypatch):
    check_solve_level_frees(element, "dissection", monkeypatch)


def assembly_meshes():
    """The immersed disk and flower meshes at 80 and 320 cells."""
    return [build_mesh(problems.immersed_spec(ex, 2), lvl) for ex in (3, 4) for lvl in (1, 2)]


@pytest.mark.parametrize("fam", [Q1, Q1B, Q2], ids=["q1", "q1b", "q2"])
def test_blocked_element_matrices_equal_one_block(fam, monkeypatch):
    # each cell runs the same arithmetic in any block, so blocks of 7 cells
    # and the default blocks give the matrix of a single block bit for bit
    per_cell = 16 * system_module._RULE.weights.size * fam.ndofs
    default = system_module._BLOCK_BYTES
    for t2 in assembly_meshes():
        space = build_space(t2, fam)
        for stiff, mass in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)):
            mats = []
            for block in (t2.num_cells * per_cell, 7 * per_cell, default):
                monkeypatch.setattr(system_module, "_BLOCK_BYTES", block)
                mats.append(assemble_matrix(space, stiff, mass))
            one = mats[0]
            for got in mats[1:]:
                for arr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, arr), getattr(one, arr))
            if not stiff and not mass:
                # the guard solve_saddle reads before factoring
                assert all(A.count_nonzero() == 0 for A in mats)


def test_assembly_memory_is_bounded():
    # Q2 on the disk's 1 280-cell level, stiffness plus mass: all element
    # matrices at once peaked at 5.19 MB of Python-traced allocations; in
    # blocks the peak is the scatter's, 4.39 MB
    space = build_space(build_mesh(problems.immersed_spec(3, 2), 3), Q2)
    assert traced_peak(lambda: assemble_matrix(space, 1.0, 1.0)) < 4.8 * 2**20


def mirror(coords, image):
    """Per dof, the dof at its image under a map of the plane, matched by
    coordinates rounded to 1e-9."""
    index = {tuple(p): i for i, p in enumerate(np.round(coords, 9))}
    return np.array([index[tuple(p)] for p in np.round(image, 9)])


@pytest.mark.parametrize("element, case", [("elm1", 1), ("elm2", 2), ("q1q1p0", 1)])
def test_centred_disk_solution_is_d4_symmetric(element, case):
    # the box, the disk mesh and the data are invariant under x <-> y and
    # x -> -x, so u is too, up to rounding: 2.8e-15 to 1.8e-14 of max |u|
    # here, 1.5e-14 to 1.8e-13 at 64^2
    exact = problems.exact_solution(3, case)
    d = solve_level(*benchmark_meshes(3, 0), element, *problems.CASES[case], g=exact["u1"])
    x, u = d.vh.dof_coords, d.sol.u
    for image in (x[:, ::-1], x * [-1.0, 1.0]):
        assert np.max(np.abs(u[mirror(x, image)] - u)) <= 1e-12 * np.max(np.abs(u))


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 12),
    nq=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    definite=st.booleans(),
)
def test_null_space_solve_matches_dense_saddle(m, nq, seed, definite):
    # row i of B owns column own[i], placed anywhere; the other columns
    # are shared by up to three rows. H is SPD, or has eigenvalues of both
    # signs, which in general leaves K = Z^T H Z indefinite as in case 3
    # (A1 > 0, A2 < 0)
    rng = np.random.default_rng(seed)
    N = m + nq
    own = rng.permutation(N)[:m]
    B = np.zeros((m, N))
    for j in np.setdiff1d(np.arange(N), own):
        rows = rng.choice(m, size=rng.integers(1, min(m, 3) + 1), replace=False)
        B[rows, j] = rng.standard_normal(rows.size)
    B[np.arange(m), own] = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
    Q = np.linalg.qr(rng.standard_normal((N, N)))[0]
    ev = rng.uniform(0.5, 2.0, N)
    if not definite:
        ev[: N // 2] *= -1.0
    H = (Q * ev) @ Q.T
    H = (H + H.T) / 2
    saddle = np.block([[H, B.T], [B, np.zeros((m, m))]])
    # an indefinite H can leave K nearly singular, with no digits to compare
    assume(np.linalg.cond(saddle) < 1e6)
    ns = NullSpace(sp.csr_matrix(H), sp.csr_matrix(B), own)
    K = ns.K.toarray()
    f, g = rng.standard_normal(N), rng.standard_normal(m)
    x, lam = ns.solve(SimpleNamespace(solve=lambda r: np.linalg.solve(K, r)), f, g)
    ref = np.linalg.solve(saddle, np.concatenate([f, g]))
    assert np.linalg.norm(x - ref[:N]) <= 1e-10 * np.linalg.norm(ref[:N])
    assert np.linalg.norm(lam - ref[N:]) <= 1e-10 * np.linalg.norm(ref[N:])
    scale = np.linalg.norm(B, 2) * np.linalg.norm(x) + np.linalg.norm(g)
    assert np.linalg.norm(B @ x - g) <= 1e-13 * scale


def test_residual_tolerance_enforced():
    sysm, vh, _ = toy_system()
    with pytest.raises(SolverError, match="residual"):
        solve_saddle(sysm, dirichlet_bc(vh), rtol=1e-30)


def test_block_system_validation():
    sysm, _, _ = toy_system()
    with pytest.raises(ValueError, match="rows"):
        BlockSystem(sysm.A1, sysm.A2, sysm.C1, sysm.C2[:2], sysm.F1, sysm.F2)
    with pytest.raises(ValueError, match="coords"):
        BlockSystem(
            sysm.A1, sysm.A2, sysm.C1, sysm.C2, sysm.F1, sysm.F2, coords=sysm.coords[1:]
        )


def test_project_p0_nested_average():
    from fddlm.mesh import refine_uniform

    coarse = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=2))
    fine = refine_uniform(coarse)
    vals = np.arange(16, dtype=float)
    proj = project_p0(vals, fine, coarse)
    assert proj == pytest.approx(vals.reshape(4, 4).mean(axis=1), rel=1e-14)
    other = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=3))
    with pytest.raises(ValueError, match="nested"):
        project_p0(np.zeros(9), other, coarse)
    # 16 cells over 4, but numbered row by row, not as children 4c..4c+3:
    # cell averaging would give 0.5 everywhere instead of 0.25, 0.75, ...
    rows = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=4))
    x_centres = rows.nodes[rows.cells].mean(axis=1)[:, 0]
    with pytest.raises(ValueError, match="nested"):
        project_p0(x_centres, rows, coarse)
    # 8 cells over 1: a power of two, but no uniform refinement
    tall = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 2), base_cells=2))
    one = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=1))
    assert (tall.num_cells, one.num_cells) == (8, 1)
    with pytest.raises(ValueError, match="nested"):
        project_p0(np.zeros(8), tall, one)
    # nested pairs of every example's immersed geometry, levels 0-3
    for example in problems.EXAMPLES:
        seq = [build_mesh(problems.immersed_spec(example, 2), 0)]
        for _ in range(3):
            seq.append(refine_uniform(seq[-1]))
        for k in range(3):
            for j in range(k + 1, 4):
                ones = np.ones(seq[j].num_cells)
                assert project_p0(ones, seq[j], seq[k]) == pytest.approx(1.0, rel=1e-12)


def test_multiplier_error_closed_forms():
    from fddlm.mesh import refine_uniform

    t2 = build_mesh(DomainSpec("square_patch", bounds=(0, 1, 0, 1), base_cells=2))
    t2f = refine_uniform(t2)
    rng = np.random.default_rng(6)
    lam_ref = rng.uniform(-1, 1, t2f.num_cells)
    proj = project_p0(lam_ref, t2f, t2)
    assert multiplier_error(proj, lam_ref, t2, t2f) == pytest.approx(0.0, abs=1e-14)
    c = 0.37
    got = multiplier_error(proj + c, lam_ref, t2, t2f)
    assert got == pytest.approx(t2.h * c * 1.0, rel=1e-12)  # area(patch) = 1


def test_error_norms_reproduction():
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    vh = build_space(t, Q2)
    v2 = build_space(t2, Q2)
    g = lambda x, y: x * x * y * y
    sol = SolutionTriple(
        u=interpolate(vh, g), u2=interpolate(v2, g), lam=np.zeros(t2.num_cells),
        residual=0.0, constraint_res=0.0,
    )
    grad = lambda x, y: (2 * x * y * y, 2 * x * x * y)
    e = error_norms(sol, vh, v2, g, grad, g, grad)
    for v in e.values():
        assert v < 1e-12


@pytest.mark.parametrize("element", ["elm1", "elm2", "q1q1p0"])
def test_field_errors_match_reference(element):
    # error norms from the field's reference gradients against per-basis
    # physical gradients, on the disk solutions of levels 0 and 1, with
    # the closed-form fields and the level-2 solution as references
    beta, beta2 = problems.CASES[1]
    ex = problems.exact_solution(3, 1)
    bg, im, _ = study_meshes(3, 4, 1.0, 3)
    data = [solve_level(t, t2, element, beta, beta2, g=ex["u1"]) for t, t2 in zip(bg, im)]
    ref = data[2]
    u_ref, u2_ref = FEFieldRef(ref.vh, ref.sol.u), FEFieldRef(ref.v2, ref.sol.u2)
    for d in data[:2]:
        for space, coeffs, refs in (
            (d.vh, d.sol.u, [(ex["u"], ex["grad_u"]), (u_ref.value, u_ref.grad)]),
            (d.v2, d.sol.u2, [(ex["u2"], ex["grad_u2"]), (u2_ref.value, u2_ref.grad)]),
        ):
            for f, grad in refs:
                got = system_module._field_errors(space, coeffs, f, grad)
                want = field_errors_reference(space, coeffs, f, grad, system_module._ERROR_RULE)
                assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_cell_terms_compute_only_what_is_asked():
    space = build_space(build_mesh(DomainSpec("disk", base_cells=2), 1), Q2)
    wdet, jinv, pts = system_module._cell_terms(space, system_module._RULE)
    assert wdet.shape == (space.mesh.num_cells, 9)
    assert jinv is None and pts is None
    _, jinv, pts = system_module._cell_terms(space, system_module._RULE, jinv=True, points=True)
    assert jinv.shape == (space.mesh.num_cells, 9, 2, 2) and pts.shape == (space.mesh.num_cells, 9, 2)
