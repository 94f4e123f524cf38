"""Inf-sup estimation: pencil oracles, equivariance, sweep mechanics."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fddlm.coupling import assemble_C2
from fddlm.element import P0, Q1, Q1B, Q2
from fddlm.infsup import (
    InfSupReport,
    build_norm_matrices,
    infsup_constant,
    infsup_sweep,
)
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.space import build_space


def small_setup(fam=Q1B, level=0, kind="disk", base=1):
    t2 = build_mesh(DomainSpec(kind, base_cells=base), level)
    v2 = build_space(t2, fam)
    lh = build_space(t2, P0)
    C2 = assemble_C2(lh, v2)
    N1, N2 = build_norm_matrices(v2, lh)
    return C2, N1, N2, t2.h


def _dense_pencil_sigma(C2, N1, N2, h2):
    """m-th largest and largest eigenvalue of the full dense pencil."""
    dinv = 1.0 / (h2 * h2 * N1.diagonal())
    C2d = C2.toarray()
    S = C2d.T @ (dinv[:, None] * C2d)
    w = sla.eigh(0.5 * (S + S.T), N2.toarray(), eigvals_only=True)
    m, n2 = C2.shape
    return w[n2 - m], w[-1]


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
    lh = build_space(t2, P0)
    N1, N2 = build_norm_matrices(v2, lh)
    assert N1.diagonal() == pytest.approx(t2.cell_areas(), rel=1e-14)
    N2d = N2.toarray()
    assert np.abs(N2d - N2d.T).max() < 1e-14
    assert np.linalg.eigvalsh(N2d).min() > 0  # H1 matrix is positive definite


def test_single_multiplier_closed_form():
    # m = 1: the largest pencil eigenvalue has the closed form
    # sigma = C2 N2^{-1} C2^T / (h2^2 |K|)
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0, 1, 0, 1), base_cells=1))
    v2 = build_space(t2, Q1)
    lh = build_space(t2, P0)
    C2 = assemble_C2(lh, v2)
    N1, N2 = build_norm_matrices(v2, lh)
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
    with pytest.raises(ValueError, match="too large"):
        infsup_constant(sp.csr_matrix((12001, 12002)), N1, N2, h2)


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


def test_sweep_mechanics():
    report = infsup_sweep("elm1", DomainSpec("disk", base_cells=1), 3)
    assert report.levels == [0, 1, 2]
    assert all(b < a for a, b in zip(report.h2, report.h2[1:]))
    assert all(b > a for a, b in zip(report.dim_V2h, report.dim_V2h[1:]))
    assert all(g > 0 for g in report.gamma_est)
    assert report.dim_Lh == [5, 20, 80]
    with pytest.raises(ValueError, match="valid tags"):
        infsup_sweep("p2p1", DomainSpec("disk"), 2)
    with pytest.raises(ValueError, match="levels"):
        infsup_sweep("elm1", DomainSpec("disk"), 0)
