"""Study drivers: rate fitting, field transfer, level solves."""

import numpy as np
import pytest

import oracles
from fddlm.element import Q1
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.runner import (
    ELEMENTS,
    FEFieldRef,
    build_mesh_sequence,
    least_squares_rate,
    run_study,
    solve_level,
)
from fddlm.mesh import CellLocator
from fddlm.space import build_space


def toy_pair():
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    t2 = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=2))
    return t, t2


def test_least_squares_rate():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    for p in (1.0, 2.0):
        assert least_squares_rate(h, 3.0 * h**p) == pytest.approx(p, abs=1e-12)
    # non-positive and non-finite entries are dropped, not propagated
    err = np.array([0.4, np.nan, 0.1, 0.0])
    assert least_squares_rate(h, err) == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(least_squares_rate([0.4], [0.1]))
    assert np.isnan(least_squares_rate(h, [np.nan, 0.0, -1.0, np.nan]))
    # an error at rounding level against the column's largest is dropped
    err = 3.0 * h**2
    err[0] = 1e-8 * err[1]
    assert least_squares_rate(h, err) == pytest.approx(2.0, abs=1e-12)
    err[0] = 1.01e-8 * err[1]
    assert least_squares_rate(h, err) < 0


def test_fe_field_ref_shapes_and_values():
    t = build_mesh(DomainSpec("rectangle", bounds=(0, 2, 0, 2), base_cells=4))
    space = build_space(t, Q1)
    coeffs = oracles.interpolate(space, lambda x, y: 2.0 * x - y + 0.5)
    ref = FEFieldRef(space, coeffs)
    x = np.linspace(0.1, 1.9, 6).reshape(2, 3)
    y = np.linspace(0.2, 1.8, 6).reshape(2, 3)
    v = ref.value(x, y)
    assert v.shape == (2, 3)
    assert v == pytest.approx(2.0 * x - y + 0.5, abs=1e-12)
    gx, gy = ref.grad(x, y)
    assert gx.shape == (2, 3) and gy.shape == (2, 3)
    assert gx == pytest.approx(np.full((2, 3), 2.0), abs=1e-11)
    assert gy == pytest.approx(np.full((2, 3), -1.0), abs=1e-11)


def test_element_table():
    assert set(ELEMENTS) == {"elm1", "elm2", "q1q1p0"}
    t, t2 = toy_pair()
    with pytest.raises(ValueError, match="valid tags"):
        solve_level(t, t2, "p1p1", 1.0, 10.0)


def test_solve_level_contract():
    t, t2 = toy_pair()
    d = solve_level(t, t2, "elm1", 1.0, 10.0)
    assert d.t is t and d.t2 is t2
    assert d.dims == {"n": d.vh.ndofs, "n2": d.v2.ndofs, "m": 4}
    assert d.sol.residual <= 1e-10
    assert d.sol.constraint_res <= 1e-9
    # equal loads force a zero-mean multiplier
    assert abs(d.lambda_mass) <= 1e-10


def test_build_mesh_sequence():
    seq = build_mesh_sequence(DomainSpec("disk", base_cells=2), 3)
    assert [m.level for m in seq] == [0, 1, 2]
    counts = [m.num_cells for m in seq]
    assert counts[1] == 4 * counts[0] and counts[2] == 4 * counts[1]


def test_run_study_exact_reference():
    res = run_study(3, 1, "elm1", levels=3, base_cells=8)
    assert res.levels == [0, 1, 2]
    assert res.immersed_base > 0
    assert res.h[1] == pytest.approx(res.h[0] / 2, rel=1e-12)
    for col in ("L2_u", "H1_u", "L2_u2", "H1_u2"):
        e = res.errors[col]
        assert all(np.isfinite(e)) and e[2] < e[0]
    assert res.rates["L2_u"] > 0.8
    # multiplier reference needs level k+2: only row 0 has one here
    lam = res.errors["lambda_err"]
    assert np.isfinite(lam[0]) and np.isnan(lam[1]) and np.isnan(lam[2])
    assert all(r <= 1e-10 for r in res.residuals)
    assert all(c <= 1e-9 for c in res.constraint_res)
    assert all(abs(m) <= 1e-8 for m in res.lambda_mass)


def test_run_study_self_convergence():
    res = run_study(1, 1, "elm1", levels=2, base_cells=4)
    assert len(res.errors["L2_u"]) == 2
    assert all(np.isfinite(res.errors[c]).all() for c in res.errors)
    assert res.errors["L2_u"][1] < res.errors["L2_u"][0]


def test_run_study_transfer_matches_per_point_oracle(monkeypatch):
    # flower self convergence: batched location and gradients against the
    # per-point loops, bitwise on every error
    res = run_study(4, 1, "elm1", levels=2, base_cells=4)
    monkeypatch.setattr(
        CellLocator, "locate", lambda self, pts, slack=1e-10: oracles.locate(self.mesh, pts, slack)
    )
    monkeypatch.setattr("fddlm.runner.evaluate_grad", oracles.evaluate_grad)
    ref = run_study(4, 1, "elm1", levels=2, base_cells=4)
    for col, vals in res.errors.items():
        assert np.array_equal(np.asarray(vals), np.asarray(ref.errors[col]), equal_nan=True)
    # the transfer diagnostics: level 1 takes two points from unconverged
    # Newton runs, up to 0.35 reference units outside their cell
    assert [s["transfer_unconverged"] for s in res.stats] == [0, 2]
    assert res.stats[0]["transfer_max_miss"] <= 1e-13
    assert 0.3 < res.stats[1]["transfer_max_miss"] < 0.4
