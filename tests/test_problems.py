"""Benchmark catalogue: manufactured solutions and mesh-pairing helpers."""

import numpy as np
import pytest

from fddlm import problems
from fddlm.problems import (
    CASES,
    background_spec,
    exact_solution,
    immersed_base_for_ratio,
    immersed_spec,
)
from fddlm.mesh import build_mesh


def fd_laplacian(f, x, y, h=1e-4):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)) / h**2


def test_case_table():
    assert CASES == {1: (1.0, 10.0), 2: (1.0, 10000.0), 3: (10.0, 1.0)}


@pytest.mark.parametrize("case", [1, 2, 3])
def test_circle_solution_identities(case):
    beta, beta2 = CASES[case]
    sol = exact_solution(3, case)
    theta = np.linspace(0.0, 2 * np.pi, 17)
    nx, ny = np.cos(theta), np.sin(theta)

    # continuity across the interface r = 1
    inner = sol["u2"](0.999999 * nx, 0.999999 * ny)
    outer = sol["u1"](1.000001 * nx, 1.000001 * ny)
    assert np.abs(inner - outer).max() < 1e-5

    # flux balance: beta du1/dn = beta2 du2/dn on r = 1 (both equal -1/2)
    g1x, g1y = sol["grad_u"](1.000001 * nx, 1.000001 * ny)
    g2x, g2y = sol["grad_u2"](0.999999 * nx, 0.999999 * ny)
    flux1 = beta * (g1x * nx + g1y * ny)
    flux2 = beta2 * (g2x * nx + g2y * ny)
    assert flux1 == pytest.approx(np.full(17, -0.5), abs=1e-5)
    assert flux2 == pytest.approx(np.full(17, -0.5), abs=1e-5)

    # strong form on both sides: -beta lap(u) = 1
    for f, coef, (x, y) in [
        (sol["u1"], beta, (1.1, 0.3)),
        (sol["u2"], beta2, (0.2, -0.4)),
    ]:
        assert -coef * fd_laplacian(f, x, y) == pytest.approx(1.0, abs=1e-4)


def test_piecewise_selection():
    sol = exact_solution(3, 1)
    x = np.array([0.0, 0.5, 1.2, 0.0])
    y = np.array([0.0, 0.0, 0.0, -1.3])
    u = sol["u"](x, y)
    inside = x**2 + y**2 <= 1.0
    assert np.allclose(u[inside], sol["u2"](x[inside], y[inside]))
    assert np.allclose(u[~inside], sol["u1"](x[~inside], y[~inside]))
    # gradients switch branch at the same radius
    gx, gy = sol["grad_u"](x, y)
    g2x, g2y = sol["grad_u2"](x[inside], y[inside])
    assert np.allclose(gx[inside], g2x) and np.allclose(gy[inside], g2y)


def test_exact_solution_availability():
    for ex in (1, 2, 4):
        assert exact_solution(ex, 1) is None
    with pytest.raises(ValueError, match="case"):
        exact_solution(3, 7)


def test_geometry_catalogue():
    b1 = background_spec(1)
    assert b1.kind == "rectangle" and b1.bounds == (0.0, 6.0, 0.0, 6.0)
    i1 = immersed_spec(1, 4)
    lo = np.e
    hi = 1.0 + np.pi
    assert i1.kind == "square_patch"
    assert i1.bounds == pytest.approx((lo, hi, lo, hi))

    assert immersed_spec(2, 4).kind == "lshape"
    assert immersed_spec(2, 3).base_cells == 4  # odd request rounds up to even

    i3 = immersed_spec(3, 2)
    assert i3.kind == "disk" and i3.radius == 1.0 and i3.center == (0.0, 0.0)
    i4 = immersed_spec(4, 2)
    assert i4.kind == "flower" and i4.amplitude == 0.1 and i4.lobes == 5

    with pytest.raises(ValueError, match="example"):
        background_spec(9)


def test_immersed_base_for_ratio():
    bg = build_mesh(background_spec(3, base_cells=16))
    base = immersed_base_for_ratio(3, bg.h, 1.0)
    t2 = build_mesh(immersed_spec(3, base))
    assert abs(t2.h / bg.h - 1.0) < 0.25

    finer = immersed_base_for_ratio(3, bg.h, 0.5)
    coarser = immersed_base_for_ratio(3, bg.h, 2.0)
    assert finer > base > coarser
    with pytest.raises(ValueError, match="ratio"):
        immersed_base_for_ratio(3, bg.h, 0.0)


@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_ratio_search_stops_at_the_crossing(example):
    # the search stops once the distance to the target grows, which finds
    # the closest candidate only because h2 falls strictly with the base
    step = 2 if example == 2 else 1
    bases = np.arange(step, problems._MAX_BASE + 1, step)
    h2 = np.array([build_mesh(immersed_spec(example, n)).h for n in bases])
    assert np.all(np.diff(h2) < 0)
    h = build_mesh(background_spec(example, 16)).h
    for ratio in [*np.geomspace(0.25, 4.0, 13), 1.08, 1.127, 1.15]:
        closest = bases[np.argmin(np.abs(h2 - ratio * h))]
        assert immersed_base_for_ratio(example, h, ratio) == closest
