"""Inf-sup estimation: pencil and Schur oracles, the two routes, sweep mechanics."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import fddlm.infsup as infsup_module
from fddlm import problems
from fddlm.coupling import assemble_C2
from fddlm.element import Q1, Q1B, Q2, gauss_square
from fddlm.infsup import (
    _GROWTH_MAX,
    _SINGULAR_TOL,
    InfSupReport,
    build_norm_matrices,
    infsup_constant,
    infsup_sweep,
)
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.space import build_space
from fddlm.system import NullSpace, assemble_matrix
from oracles import assemble_reference, null_space_apply


def small_setup(fam=Q1B, level=0, kind="disk", base=1):
    return spec_setup(fam, DomainSpec(kind, base_cells=base), level)


def spec_setup(fam, spec, level):
    t2 = build_mesh(spec, level)
    v2 = build_space(t2, fam)
    C2 = assemble_C2(v2)
    N1, N2 = build_norm_matrices(v2)
    return C2, N1, N2, t2.h


def _dense_pencil_sigma(C2, N1, N2, h2):
    """m-th largest and largest eigenvalue of the full dense pencil."""
    dinv = 1.0 / (h2 * h2 * N1.diagonal())
    C2d = C2.toarray()
    S = C2d.T @ (dinv[:, None] * C2d)
    w = sla.eigh(0.5 * (S + S.T), N2.toarray(), eigvals_only=True)
    m, n2 = C2.shape
    return w[n2 - m], w[-1]


def _schur_sigma(C2, N1, N2, h2, block=512):
    """Smallest eigenvalue of the dense m x m form W = R N2^{-1} R^T.

    W is built block column by block column from one factorization of
    N2, then handed to a dense symmetric eigensolver.
    """
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


def _infsup_constant_svd(C2, N1, N2, h2):
    """The constant through the equivalent singular value problem.

    With N2 = L L^T and D = h2^2 N1, gamma is the smallest singular
    value of D^{-1/2} C2 L^{-T}: an independent cross-check of the
    eigenvalue path.
    """
    m, n2 = C2.shape
    L = sla.cholesky(N2.toarray(), lower=True)
    dis = 1.0 / (h2 * np.sqrt(N1.diagonal()))
    # M = D^{-1/2} C2 L^{-T}; columns solved as L^{-1} C2^T
    Y = sla.solve_triangular(L, C2.toarray().T, lower=True)
    M = dis[:, None] * Y.T
    return float(sla.svdvals(M)[min(m, n2) - 1])


def test_norm_matrices():
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0, 1, 0, 1), base_cells=2))
    v2 = build_space(t2, Q1)
    N1, N2 = build_norm_matrices(v2)
    assert N1.diagonal() == pytest.approx(t2.cell_areas(), rel=1e-14)
    N2d = N2.toarray()
    assert np.abs(N2d - N2d.T).max() < 1e-14
    assert np.linalg.eigvalsh(N2d).min() > 0  # H1 matrix is positive definite


@pytest.mark.parametrize("kind", ["disk", "flower"])
@pytest.mark.parametrize("fam", [Q1, Q1B, Q2], ids=["q1", "q1b", "q2"])
def test_norm_matrix_is_stiffness_plus_mass(fam, kind):
    # N2 and the other uses of the element-matrix kernel (A1, the mass
    # matrix, the case-3 A2) against the einsum oracle at the same rule
    t2 = build_mesh(DomainSpec(kind, base_cells=2), 1)
    v2 = build_space(t2, fam)
    _, N2 = build_norm_matrices(v2)
    assert N2.format == "csr" and N2.has_canonical_format
    assert N2.indices.dtype == np.int32 and N2.indptr.dtype == np.int32
    for stiff, mass in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (-9.0, 0.0)):
        mat = N2 if (stiff, mass) == (1.0, 1.0) else assemble_matrix(v2, stiff, mass)
        ref = assemble_reference(v2, stiff, mass, gauss_square(3))
        assert mat.nnz == ref.nnz
        assert abs(mat - ref).max() <= 1e-14 * abs(ref).max()
    # solve_saddle's beta2 = beta guard reads A2.count_nonzero() == 0
    assert assemble_matrix(v2, 0.0, 0.0).count_nonzero() == 0


def test_single_multiplier_closed_form():
    # m = 1: the largest pencil eigenvalue has the closed form
    # sigma = C2 N2^{-1} C2^T / (h2^2 |K|)
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0, 1, 0, 1), base_cells=1))
    v2 = build_space(t2, Q1)
    C2 = assemble_C2(v2)
    N1, N2 = build_norm_matrices(v2)
    c = C2.toarray().ravel()
    sigma_ref = float(c @ np.linalg.solve(N2.toarray(), c)) / (t2.h**2 * 1.0)
    sigma, gamma = infsup_constant(C2, N1, N2, t2.h)
    assert sigma == pytest.approx(sigma_ref, rel=1e-13)
    assert gamma == pytest.approx(np.sqrt(sigma_ref), rel=1e-13)


def test_eigen_and_svd_paths_agree():
    C2, N1, N2, h2 = small_setup(Q1B, level=1)
    sigma, gamma = infsup_constant(C2, N1, N2, h2)
    gamma_svd = _infsup_constant_svd(C2, N1, N2, h2)
    assert sigma >= 0
    assert gamma == pytest.approx(gamma_svd, rel=1e-8)
    # equal-order pairing is rank deficient here; both paths must flag it
    C2, N1, N2, h2 = small_setup(Q1, level=1)
    _, gamma = infsup_constant(C2, N1, N2, h2)
    gamma_svd = _infsup_constant_svd(C2, N1, N2, h2)
    assert gamma < 1e-6 and gamma_svd < 1e-6


def test_scale_equivariance():
    C2, N1, N2, h2 = small_setup(Q1B)
    _, gamma = infsup_constant(C2, N1, N2, h2)
    for c in (3.0, 0.2):
        _, gc = infsup_constant(c * C2, N1, N2, h2)
        assert gc == pytest.approx(abs(c) * gamma, rel=1e-10)
    # halving h2 doubles gamma: the pencil scales with 1/h2^2
    _, g2 = infsup_constant(C2, N1, N2, 0.5 * h2)
    assert g2 == pytest.approx(2.0 * gamma, rel=1e-10)


def test_permutation_invariance():
    C2, N1, N2, h2 = small_setup(Q1B)
    _, gamma = infsup_constant(C2, N1, N2, h2)
    rng = np.random.default_rng(9)
    perm = rng.permutation(C2.shape[1])
    C2p = sp.csr_matrix(C2.toarray()[:, perm])
    N2p = sp.csr_matrix(N2.toarray()[np.ix_(perm, perm)])
    _, gp = infsup_constant(C2p, N1, N2p, h2)
    assert gp == pytest.approx(gamma, rel=1e-10)


def test_dimension_guards():
    C2, N1, N2, h2 = small_setup(Q1)
    with pytest.raises(ValueError, match="larger"):
        infsup_constant(sp.csr_matrix(np.ones((50, 4))), N1, N2, h2)


# the criterion-3 levels whose dense Schur oracle fits in seconds, and
# the control q1-p0, whose C2 is rank deficient on the disk (checkerboard
# kernel), so the unregularized norm saddle is singular
_CRITERION_3_LEVELS = (
    [(Q1B, 1, lvl) for lvl in range(5)]
    + [(Q2, 2, lvl) for lvl in range(4)]
    + [(Q1, 1, lvl) for lvl in range(5)]
)


@pytest.mark.parametrize(
    "fam,base,level",
    _CRITERION_3_LEVELS,
    ids=[f"{f.tag}-base{b}-L{lvl}" for f, b, lvl in _CRITERION_3_LEVELS],
)
def test_matches_schur_oracle(fam, base, level):
    C2, N1, N2, h2 = small_setup(fam, level=level, base=base)
    sigma, gamma = infsup_constant(C2, N1, N2, h2)
    if fam is Q1:
        assert gamma < _SINGULAR_TOL
    else:
        assert sigma == pytest.approx(_schur_sigma(C2, N1, N2, h2), rel=1e-10)


@pytest.mark.parametrize("level", [1, 3], ids=["column-inverse", "lanczos"])
def test_repeat_calls_are_bitwise_equal(level):
    C2, N1, N2, h2 = small_setup(Q1B, level=level)
    sigma, _ = infsup_constant(C2, N1, N2, h2)
    assert infsup_constant(C2, N1, N2, h2)[0] == sigma


@pytest.mark.parametrize(
    "fam,level", [(Q1B, 1), (Q1B, 2), (Q2, 1)], ids=["elm1-1", "elm1-2", "elm2-1"]
)
def test_matches_dense_pencil_spectrum(fam, level):
    C2, N1, N2, h2 = small_setup(fam, level=level)
    sigma, gamma = infsup_constant(C2, N1, N2, h2)
    sigma_ref, _ = _dense_pencil_sigma(C2, N1, N2, h2)
    assert sigma == pytest.approx(sigma_ref, rel=1e-10)
    assert gamma == pytest.approx(np.sqrt(sigma_ref), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    n2=st.integers(1, 12),
    mfrac=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    duplicate=st.booleans(),
)
def test_matches_dense_pencil_on_random_pencils(n2, mfrac, seed, duplicate):
    # random SPD N2, random C2 with m <= n2; a duplicated row makes C2
    # rank deficient, so the m-th largest pencil eigenvalue is zero
    m = 1 + int(mfrac * (n2 - 1))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n2, n2))
    N2 = sp.csr_matrix(A @ A.T + 0.1 * np.eye(n2))
    C = rng.standard_normal((m, n2))
    if duplicate and m > 1:
        C[-1] = C[0]
    C2 = sp.csr_matrix(C)
    N1 = sp.diags(rng.uniform(0.5, 2.0, m)).tocsr()
    h2 = rng.uniform(0.1, 1.0)
    sigma, _ = infsup_constant(C2, N1, N2, h2)
    sigma_ref, top = _dense_pencil_sigma(C2, N1, N2, h2)
    assert abs(sigma - sigma_ref) <= 1e-10 * top


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 24),
    nq=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    small=st.booleans(),
)
def test_null_space_route_matches_dense_pencil(m, nq, seed, small):
    # every row owns one private column (the null-space route), plus
    # shared columns each touched by at least two rows; nq = 0 leaves
    # nothing to factor. A small private entry makes the basis
    # Z = [I; -D^-1 C2_q] large; past _GROWTH_MAX the eps route is taken
    rng = np.random.default_rng(seed)
    n2 = m + nq
    A = rng.standard_normal((n2, n2))
    N2 = sp.csr_matrix(A @ A.T + 0.1 * np.eye(n2))
    C = np.zeros((m, n2))
    cols = rng.permutation(n2)
    own, shared = cols[:m], cols[m:]
    C[np.arange(m), own] = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
    if small:
        C[0, own[0]] *= 1e-3
    for j in shared:
        rows = rng.choice(m, size=min(m, rng.integers(2, 5)), replace=False)
        C[rows, j] = rng.standard_normal(rows.size)
    C2 = sp.csr_matrix(C)
    N1 = sp.diags(rng.uniform(0.5, 2.0, m)).tocsr()
    h2 = rng.uniform(0.1, 1.0)
    stats = {}
    sigma, _ = infsup_constant(C2, N1, N2, h2, stats)
    sigma_ref, top = _dense_pencil_sigma(C2, N1, N2, h2)
    assert abs(sigma - sigma_ref) <= 1e-10 * top
    # with m = 1 every column is private and the highest one is taken
    b = infsup_module.interior_columns(C2)
    growth = max(np.abs(C).max(axis=1) / np.abs(C[np.arange(m), b]))
    if growth <= _GROWTH_MAX:
        assert stats["factored"] == nq and stats["eps"] == 0.0
        # nq = 0 has no solve: W^{-1} = G to one rounding per entry. With
        # a solve the two product orders round apart by up to 5e-12 here,
        # amplified by entries of Z up to _GROWTH_MAX
        fast, slow = _null_space_applies(C2, N1, N2, h2)
        Y = rng.standard_normal((m, 3))
        tol = 1e-13 if nq == 0 else 1e-10
        assert np.linalg.norm(fast(Y) - slow(Y)) <= tol * np.linalg.norm(slow(Y))
    else:
        assert stats["factored"] == n2 + m and stats["eps"] > 0


def _null_space_applies(C2, N1, N2, h2):
    """The precomputed W^{-1} apply of infsup_constant and its product-by-product oracle."""
    r = 1.0 / (h2 * np.sqrt(N1.diagonal()))
    interior = infsup_module.interior_columns(C2)
    ns = NullSpace(N2, C2, interior)
    fast = infsup_module._null_space_inverse(ns, r)[0]
    d = np.asarray(C2[np.arange(C2.shape[0]), interior]).ravel()
    return fast, null_space_apply(d, ns.Z, interior, r, N2)


@pytest.mark.parametrize("example", [1, 2, 3, 4])
@pytest.mark.parametrize("fam", [Q1B, Q2], ids=["elm1", "elm2"])
def test_null_space_operator_matches_product_apply(fam, example):
    # G y - B^T K_q^{-1} B y against v = L y + Z K_q^{-1}(-Z^T N2 L y),
    # L^T N2 v, on one vector and on a block, and its symmetry
    rng = np.random.default_rng(example)
    for level in range(4):
        C2, N1, N2, h2 = spec_setup(fam, problems.immersed_spec(example, 1), level)
        fast, slow = _null_space_applies(C2, N1, N2, h2)
        m = C2.shape[0]
        x, y, Y = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal((m, 3))
        for v in (y, Y):
            assert fast(v).shape == v.shape
            assert np.linalg.norm(fast(v) - slow(v)) <= 1e-13 * np.linalg.norm(slow(v))
        fx, fy = fast(x), fast(y)
        assert abs(x @ fy - y @ fx) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(fy)


def test_lu_fill_counts_l_and_u_on_the_null_space_route(monkeypatch):
    # relax=1 pads no supernode, so SuperLU's stored entries are L's plus U's
    factors = []
    splu = spla.splu

    def keep(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(infsup_module.spla, "splu", keep)
    report = infsup_sweep("elm1", DomainSpec("disk", base_cells=1), 4)
    assert len(factors) == 4
    for s, f in zip(report.stats, factors):
        assert s["lu_fill"] == f.L.nnz + f.U.nnz


def _eps_route(monkeypatch):
    # without interior columns infsup_constant takes the eps-saddle route
    monkeypatch.setattr(infsup_module, "interior_columns", lambda C2: None)


_STABLE_LEVELS = [p for p in _CRITERION_3_LEVELS if p[0] is not Q1]


@pytest.mark.parametrize(
    "fam,base,level",
    _STABLE_LEVELS,
    ids=[f"{f.tag}-base{b}-L{lvl}" for f, b, lvl in _STABLE_LEVELS],
)
def test_null_space_route_matches_eps_route(fam, base, level, monkeypatch):
    C2, N1, N2, h2 = small_setup(fam, level=level, base=base)
    fast, slow = {}, {}
    sigma = infsup_constant(C2, N1, N2, h2, fast)[0]
    _eps_route(monkeypatch)
    sigma_eps = infsup_constant(C2, N1, N2, h2, slow)[0]
    assert sigma == pytest.approx(sigma_eps, rel=1e-12)
    assert fast["eps"] == 0.0 and slow["eps"] > 0
    assert fast["factored"] == C2.shape[1] - C2.shape[0]
    assert fast["lu_fill"] < slow["lu_fill"]


def test_verdict_logic():
    def rep(gammas):
        r = InfSupReport(element="elm1", geometry="disk")
        r.gamma_est = list(gammas)
        return r

    assert rep([1.0, 0.9, 0.8]).verdict() == "stable"
    assert rep([1.0, 0.4, 0.2]).verdict() == "degenerating"
    assert rep([1.0, 0.3, 0.35]).verdict() == "inconclusive"
    assert rep([1.0]).verdict() == "inconclusive"
    # eigenvalues at noise scale mean a singular pairing, whatever their
    # mutual ordering
    assert rep([2e-9, 4e-9, 1e-9]).verdict() == "degenerating"


def test_sweep_mechanics(monkeypatch):
    report = infsup_sweep("elm1", DomainSpec("disk", base_cells=1), 3)
    assert report.levels == [0, 1, 2]
    assert all(b < a for a, b in zip(report.h2, report.h2[1:]))
    assert all(b > a for a, b in zip(report.dim_V2h, report.dim_V2h[1:]))
    assert all(g > 0 for g in report.gamma_est)
    assert report.dim_Lh == [5, 20, 80]
    # elm1 takes the null-space route: Z^T N2 Z of order n2 - m, no eps
    assert [s["factored"] for s in report.stats] == [
        n2 - m for n2, m in zip(report.dim_V2h, report.dim_Lh)
    ]
    for s in report.stats:
        assert set(s) == {"factored", "lu_fill", "matvecs", "eps"}
        assert s["lu_fill"] >= s["factored"] and s["matvecs"] > 0 and s["eps"] == 0.0
    # q1q1p0 has no interior columns: the eps saddle of order n2 + m
    control = infsup_sweep("q1q1p0", DomainSpec("disk", base_cells=1), 2)
    assert [s["factored"] for s in control.stats] == [
        n2 + m for n2, m in zip(control.dim_V2h, control.dim_Lh)
    ]
    assert all(s["eps"] > 0 for s in control.stats)
    # the same elm1 levels through the eps route factor more
    _eps_route(monkeypatch)
    slow = infsup_sweep("elm1", DomainSpec("disk", base_cells=1), 3)
    for s, e in zip(report.stats, slow.stats):
        assert s["lu_fill"] < e["lu_fill"]
    with pytest.raises(ValueError, match="valid tags"):
        infsup_sweep("p2p1", DomainSpec("disk"), 2)
    with pytest.raises(ValueError, match="levels"):
        infsup_sweep("elm1", DomainSpec("disk"), 0)
