"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL
line with the measured numbers next to the pinned thresholds. The
refinement studies here run the real benchmark protocol (coarsest
background 16x16, matched immersed resolution, four levels) and are
shared across criteria through module-scoped fixtures; every solve they
perform feeds the global residual criterion.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from fddlm.coupling import assemble_C1, assemble_C2, build_intersections
from fddlm.element import Q1, Q1B, basis_matrix, gauss_square
from fddlm.infsup import build_norm_matrices, infsup_constant, infsup_sweep
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.runner import run_study
from fddlm.space import build_space, dirichlet_bc
from fddlm.system import (
    BlockSystem,
    apply_dirichlet,
    assemble_A1,
    assemble_A2,
    assemble_rhs,
    full_matrix,
    solve_saddle,
)
from oracles import assemble_reference, gauss_triangle

_ALL_RUNS = []


def _collect(run):
    _ALL_RUNS.append(run)
    return run


def _line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def study_elm1():
    t0 = time.perf_counter()
    res = run_study(3, 1, "elm1", levels=4, base_cells=16)
    return _collect(res), time.perf_counter() - t0


@pytest.fixture(scope="module")
def studies_elm2():
    return {c: _collect(run_study(3, c, "elm2", levels=4, base_cells=16)) for c in (1, 2)}


@pytest.fixture(scope="module")
def self_convergence():
    return {
        (ex, c): _collect(run_study(ex, c, "elm1", levels=3, base_cells=8))
        for ex in (1, 2, 4)
        for c in (1, 2)
    }


@pytest.fixture(scope="module")
def unstable_study():
    return _collect(run_study(3, 3, "q1q1p0", levels=4, base_cells=16))


@pytest.fixture(scope="module")
def toy_problem():
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    vh = build_space(t, Q1)
    v2 = build_space(t2, Q1B)
    C1 = assemble_C1(build_intersections(t2, t), vh)
    C2 = assemble_C2(v2)
    F1, F2 = assemble_rhs(vh, v2, 1.0, 1.0)
    system = BlockSystem(assemble_A1(vh, 1.0), assemble_A2(v2, 1.0, 10.0), C1, C2, F1, F2)
    bc = dirichlet_bc(vh)
    sol = solve_saddle(system, bc)
    _collect(SimpleNamespace(residuals=[sol.residual], constraint_res=[sol.constraint_res]))
    return system, bc, sol, (v2, C2, t2.h)


@pytest.fixture(scope="module")
def everything(study_elm1, studies_elm2, self_convergence, unstable_study, toy_problem):
    return None


def _check_rates(res, tag):
    r = res.rates
    ok = r["L2_u"] >= 0.85 and r["H1_u"] >= 0.40 and r["L2_u2"] >= 0.85
    detail = (
        f"{tag} rates L2_u={r['L2_u']:.3f} (>=0.85), H1_u={r['H1_u']:.3f} "
        f"(>=0.40), L2_u2={r['L2_u2']:.3f} (>=0.85), h2/h={res.h2[0] / res.h[0]:.3f}"
    )
    return ok, detail


def test_criterion_1_exact_convergence_element1(study_elm1):
    res, elapsed = study_elm1
    ok, detail = _check_rates(res, "elm1/case1")
    ok = ok and elapsed <= 300.0
    assert _line("criterion 1", ok, f"{detail}, runtime {elapsed:.0f}s (<=300s)")


def test_criterion_2_exact_convergence_element2(studies_elm2):
    oks, details = [], []
    for c in (1, 2):
        ok, detail = _check_rates(studies_elm2[c], f"elm2/case{c}")
        oks.append(ok)
        details.append(detail)
    assert _line("criterion 2", all(oks), "; ".join(details))


def test_criterion_3_infsup_stability():
    disk1 = DomainSpec("disk", base_cells=1)
    rep1 = infsup_sweep("elm1", disk1, 5)
    # q2 needs one more level of base resolution to start in regime
    rep2 = infsup_sweep("elm2", DomainSpec("disk", base_cells=2), 5)
    rep0 = infsup_sweep("q1q1p0", disk1, 5)
    r1 = rep1.gamma_est[-1] / rep1.gamma_est[0]
    r2 = rep2.gamma_est[-1] / rep2.gamma_est[0]
    # the q1-p0 pairing carries a checkerboard kernel on these meshes, so
    # its estimates are numerically zero from the coarsest level onward
    g0 = rep0.gamma_est[-1]
    ok = (
        r1 >= 0.5
        and r2 >= 0.5
        and rep1.verdict() == "stable"
        and rep2.verdict() == "stable"
        and rep0.verdict() == "degenerating"
        and g0 < 1e-6
    )
    assert _line(
        "criterion 3",
        ok,
        f"elm1 finest/coarsest={r1:.3f} (>=0.5, {rep1.verdict()}); "
        f"elm2={r2:.3f} (>=0.5, {rep2.verdict()}); "
        f"q1q1p0 gamma_finest={g0:.1e} (<1e-6, {rep0.verdict()})",
    )


def test_criterion_4_coupling_exactness():
    # closed-form corner overlap: one background cell [0.5,1.5]^2 against
    # the immersed cell [0.5,1]^2; the basis of node (0.5,0.5) integrates
    # to (3/8)^2 over the overlap
    t = build_mesh(DomainSpec("rectangle", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=1))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.0, 0.5, 1.0), base_cells=1))
    vh = build_space(t, Q1)
    C1 = assemble_C1(build_intersections(t2, t), vh)
    j = int(np.where((vh.dof_coords == [0.5, 0.5]).all(axis=1))[0][0])
    entry = C1.toarray()[0, j]
    corner_err = abs(entry - 0.140625)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        dx, dy = rng.uniform(-0.25, 0.25, size=2)
        bg = build_mesh(
            DomainSpec("rectangle", bounds=(dx, 2 + dx, dy, 2 + dy), base_cells=4), 1
        )
        im = build_mesh(
            DomainSpec("square_patch", bounds=(0.7, 1.3, 0.7, 1.3), base_cells=2), 1
        )
        C = assemble_C1(build_intersections(im, bg), build_space(bg, Q1))
        sums = np.asarray(C.sum(axis=1)).ravel()
        areas = im.cell_areas()
        worst = max(worst, float(np.abs(sums / areas - 1.0).max()))
    ok = corner_err <= 1e-12 and worst <= 1e-10
    assert _line(
        "criterion 4",
        ok,
        f"corner entry |err|={corner_err:.1e} (<=1e-12); worst row-sum rel "
        f"deviation over 100 offsets={worst:.1e} (<=1e-10)",
    )


def test_criterion_5_multiplier_integral(study_elm1):
    res, _ = study_elm1
    masses = [abs(m) for m in res.lambda_mass]
    # with equal loads the constant test function pins the multiplier
    # mean to zero at every level, so instead of a smooth decay the whole
    # sequence sits at the solver noise floor; decreasing-or-floored
    # captures both behaviours
    floor = 1e-8
    monotone = all(b <= a or b <= floor for a, b in zip(masses, masses[1:]))
    ok = len(masses) >= 4 and monotone and masses[-1] < 0.05
    assert _line(
        "criterion 5",
        ok,
        f"|sum lambda_i area_i| per level={['%.1e' % m for m in masses]}, "
        f"finest={masses[-1]:.1e} (<0.05), decreasing or below {floor:.0e} floor",
    )


def test_criterion_6_residuals_of_every_solve(everything):
    res = [r for run in _ALL_RUNS for r in run.residuals]
    con = [c for run in _ALL_RUNS for c in run.constraint_res]
    ok = max(res) <= 1e-10 and max(con) <= 1e-9
    assert _line(
        "criterion 6",
        ok,
        f"{len(res)} solves: max residual={max(res):.1e} (<=1e-10), "
        f"max constraint={max(con):.1e} (<=1e-9)",
    )


def test_criterion_7_brute_force_equivalence(toy_problem):
    system, bc, sol, (v2, C2, h2) = toy_problem
    elim = apply_dirichlet(system, bc)
    K = full_matrix(elim).toarray()
    b = np.concatenate([elim.F1, elim.F2, elim.G])
    x_dense = sla.lu_solve(sla.lu_factor(K), b)
    x = np.concatenate([sol.u, sol.u2, sol.lam])
    rel = float(np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense))

    N1, N2 = build_norm_matrices(v2)
    _, gamma = infsup_constant(C2, N1, N2, h2)
    # oracle: full generalized spectrum of the dense pencil, m-th largest
    dinv = 1.0 / (h2 * h2 * N1.diagonal())
    C2d = C2.toarray()
    S = C2d.T @ (dinv[:, None] * C2d)
    w = sla.eigh(0.5 * (S + S.T), N2.toarray(), eigvals_only=True)
    gamma_oracle = float(np.sqrt(w[v2.ndofs - v2.mesh.num_cells]))
    grel = abs(gamma - gamma_oracle) / gamma_oracle
    ok = rel <= 1e-11 and grel <= 1e-8
    assert _line(
        "criterion 7",
        ok,
        f"dense-LU relative diff={rel:.1e} (<=1e-11); gamma={gamma:.6f} vs "
        f"oracle rel diff={grel:.1e} (<=1e-8)",
    )


def test_criterion_8_symbolic_oracles():
    k_unit = (1.0 / 6.0) * np.array(
        [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]],
        dtype=float,
    )
    m_unit = (1.0 / 36.0) * np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
    )
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=1))
    s = build_space(t, Q1)
    dm = s.dof_map[0]
    ix = np.ix_(dm, dm)
    rule = gauss_square(3)
    e_stiff = np.abs(assemble_reference(s, 1.0, 0.0, rule).toarray()[ix] - k_unit).max()
    e_mass = np.abs(assemble_reference(s, 0.0, 1.0, rule).toarray()[ix] - m_unit).max()

    bubble = basis_matrix(Q1B, rule.points)[:, 4]
    e_bubble = abs(float(rule.weights @ bubble) - 4.0 / 9.0)

    e_quad = 0.0
    for n in range(1, 7):
        r = gauss_square(n)
        for a in range(2 * n):
            for b in range(2 * n):
                val = float(r.weights @ (r.points[:, 0] ** a * r.points[:, 1] ** b))
                e_quad = max(e_quad, abs(val - 1.0 / ((a + 1) * (b + 1))))
    for deg in (1, 2, 3, 4, 5):
        r = gauss_triangle(deg)
        for a in range(r.degree + 1):
            for b in range(r.degree + 1 - a):
                val = float(r.weights @ (r.points[:, 0] ** a * r.points[:, 1] ** b))
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                e_quad = max(e_quad, abs(val - exact))

    ok = max(e_stiff, e_mass, e_bubble, e_quad) <= 1e-13
    assert _line(
        "criterion 8",
        ok,
        f"stiffness |err|={e_stiff:.1e}, mass={e_mass:.1e}, bubble "
        f"integral={e_bubble:.1e}, quadrature exactness={e_quad:.1e} (all <=1e-13)",
    )


def test_examples_self_convergence_rates(self_convergence):
    oks = []
    for (ex, case), res in sorted(self_convergence.items()):
        r = res.rates
        ok = r["L2_u"] >= 0.5 and r["L2_u2"] >= 0.5
        oks.append(ok)
        print(
            f"  example {ex} case {case}: L2_u={r['L2_u']:.3f} H1_u={r['H1_u']:.3f} "
            f"L2_u2={r['L2_u2']:.3f} H1_u2={r['H1_u2']:.3f} "
            f"lambda={r['lambda_err']:.3f}"
        )
    assert _line(
        "self-convergence", all(oks), "examples 1/2/4 cases 1-2: L2 rates >= 0.5"
    )


def test_unstable_element_fails_to_converge(unstable_study):
    rates = unstable_study.rates
    finite = {c: r for c, r in rates.items() if np.isfinite(r)}
    ok = any(r < 0.2 for r in finite.values())
    assert _line(
        "non-convergence control",
        ok,
        "q1q1p0 on the jump benchmark: "
        + ", ".join(f"{c}={r:.3f}" for c, r in sorted(finite.items()))
        + " (at least one < 0.2)",
    )
