"""Assembly oracles, Dirichlet elimination and the saddle solver."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.integrate import dblquad

from fddlm.coupling import assemble_C1, assemble_C2, build_intersections
from fddlm.element import P0, Q1, Q2, CellMap, gauss_square, grad_matrix
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.space import build_space, dirichlet_bc
from fddlm.system import (
    BlockSystem,
    SolutionTriple,
    SolverError,
    apply_dirichlet,
    assemble_A2,
    assemble_load,
    assemble_mass,
    assemble_rhs,
    assemble_stiffness,
    error_norms,
    full_matrix,
    multiplier_error,
    project_p0,
    solve_saddle,
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
    fam_h, fam_2 = {"elm1": (Q1, "q1b"), "q1q1p0": (Q1, Q1)}[element]
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    vh = build_space(t, fam_h)
    v2 = build_space(t2, fam_2)
    lh = build_space(t2, P0)
    table = build_intersections(t2, t)
    sysm = BlockSystem(
        assemble_stiffness(vh, beta),
        assemble_A2(v2, beta, beta2),
        assemble_C1(table, lh, vh),
        assemble_C2(lh, v2),
        *assemble_rhs(vh, v2, f, f2),
    )
    return sysm, vh, v2, lh


def test_q1_unit_stiffness_matrix():
    s = unit_cell_space()
    K = element_matrix(s, assemble_stiffness(s))
    assert K == pytest.approx(K_UNIT, abs=1e-13)
    assert K.sum(axis=1) == pytest.approx(np.zeros(4), abs=1e-14)
    K10 = element_matrix(s, assemble_stiffness(s, coeff=10.0))
    assert K10 == pytest.approx(10.0 * K_UNIT, abs=1e-12)


def test_stiffness_matches_adaptive_quadrature():
    # independent integration path for one distorted bilinear cell
    quadpts = np.array([[0.0, 0.0], [1.2, 0.1], [1.3, 1.1], [-0.1, 0.9]])
    m = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=1))
    m.nodes[:] = quadpts[[0, 1, 3, 2]]  # node order of the structured grid
    s = build_space(m, Q1)
    K = assemble_stiffness(s, quad=gauss_square(6)).toarray()
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
    # the assembly default (3x3 Gauss) stays close on mildly distorted cells
    K3 = assemble_stiffness(s).toarray()
    assert abs(K3[di, dj] - ref) < 2e-4


def test_mass_matrix_oracle():
    s = unit_cell_space()
    M = element_matrix(s, assemble_mass(s))
    expect = np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
    ) / 36.0
    assert M == pytest.approx(expect, abs=1e-14)


def test_load_oracles():
    s = unit_cell_space()
    assert assemble_load(s, 1.0) == pytest.approx(np.full(4, 0.25), abs=1e-14)
    fx = assemble_load(s, lambda x, y: x)
    order = np.argsort(s.dof_coords[:, 0], kind="stable")
    expect = np.empty(4)
    expect[s.dof_coords[:, 0] < 0.5] = 1.0 / 12.0
    expect[s.dof_coords[:, 0] > 0.5] = 1.0 / 6.0
    assert fx == pytest.approx(expect, abs=1e-14)
    assert order is not None


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
    sysm, vh, v2, _ = toy_system(f=1.0, f2=1.0)
    assert np.all(sysm.F2 == 0.0)
    F1a, F2a = assemble_rhs(vh, v2, 1.0, 3.0)
    F1b, F2b = assemble_rhs(vh, v2, 0.0, 0.0)
    assert np.all(F1b == 0.0) and np.all(F2b == 0.0)
    assert F2a == pytest.approx(2.0 * assemble_load(v2, 1.0), rel=1e-13)


def test_full_matrix_symmetry():
    sysm, vh, _, _ = toy_system()
    K = full_matrix(sysm)
    assert np.abs((K - K.T).toarray()).max() < 1e-13
    elim = apply_dirichlet(sysm, dirichlet_bc(vh))
    Ke = full_matrix(elim)
    assert np.abs((Ke - Ke.T).toarray()).max() < 1e-13


def test_dirichlet_rows_and_values():
    sysm, vh, _, _ = toy_system()
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
    sysm, vh, _, _ = toy_system(f=0.0, f2=0.0)
    sol = solve_saddle(sysm, dirichlet_bc(vh))
    assert np.abs(sol.u).max() < 1e-12
    assert np.abs(sol.u2).max() < 1e-12
    assert np.abs(sol.lam).max() < 1e-12


def test_solver_matches_dense_brute_force():
    sysm, vh, _, _ = toy_system()
    elim = apply_dirichlet(sysm, dirichlet_bc(vh))
    sol = solve_saddle(elim)
    K = full_matrix(elim).toarray()
    b = np.concatenate([elim.F1, elim.F2, elim.G])
    x = np.linalg.solve(K, b)
    got = np.concatenate([sol.u, sol.u2, sol.lam])
    assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-11
    assert sol.residual <= 1e-10
    assert sol.constraint_res <= 1e-9


def test_scaling_equivariance():
    base, vh, _, _ = toy_system(f=1.0, f2=2.0)
    scaled, _, _, _ = toy_system(f=3.0, f2=6.0)
    bc = dirichlet_bc(vh)
    s1 = solve_saddle(base, bc)
    s3 = solve_saddle(scaled, bc)
    for a, b in ((s1.u, s3.u), (s1.u2, s3.u2), (s1.lam, s3.lam)):
        assert 3.0 * a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_energy_identity():
    sysm, vh, _, _ = toy_system(beta=1.0, beta2=10.0)
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
    lh = build_space(t2, P0)
    table = build_intersections(t2, t)
    sysm = BlockSystem(
        assemble_stiffness(vh, 1.0),
        assemble_A2(v2, 1.0, 1.0 + delta),
        assemble_C1(table, lh, vh),
        assemble_C2(lh, v2),
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


def test_residual_tolerance_enforced():
    sysm, vh, _, _ = toy_system()
    with pytest.raises(SolverError, match="residual"):
        solve_saddle(sysm, dirichlet_bc(vh), rtol=1e-30)


def test_block_system_validation():
    sysm, _, _, _ = toy_system()
    with pytest.raises(ValueError, match="rows"):
        BlockSystem(sysm.A1, sysm.A2, sysm.C1, sysm.C2[:2], sysm.F1, sysm.F2)


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
    from fddlm.space import interpolate

    sol = SolutionTriple(
        u=interpolate(vh, g), u2=interpolate(v2, g), lam=np.zeros(t2.num_cells),
        residual=0.0, constraint_res=0.0,
    )
    grad = lambda x, y: (2 * x * y * y, 2 * x * x * y)
    e = error_norms(sol, vh, v2, g, grad, g, grad)
    for v in e.values():
        assert v < 1e-12
