"""Reference elements, quadrature rules and cell maps vs symbolic values."""

import math

import numpy as np
import pytest

from fddlm.element import (
    _1D,
    Q1,
    Q1B,
    Q2,
    basis_matrix,
    cell_points,
    gauss_square,
    grad_matrix,
    invert_bilinear,
)
from fddlm.runner import study_meshes
from fddlm.system import _ERROR_RULE, _RULE
from oracles import CellMap, cell_map_inverse, cell_points_einsum, gauss_triangle

Q1_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
Q2_NODES = np.array(
    [
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
        [0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5],
        [0.5, 0.5],
    ]
)


def test_family_dof_counts():
    assert (Q1.ndofs, Q2.ndofs, Q1B.ndofs) == (4, 9, 5)
    assert [f.tag for f in (Q1, Q2, Q1B)] == ["q1", "q2", "q1b"]


def test_nodal_basis_is_kronecker():
    assert basis_matrix(Q1, Q1_NODES) == pytest.approx(np.eye(4), abs=1e-15)
    assert basis_matrix(Q2, Q2_NODES) == pytest.approx(np.eye(9), abs=1e-14)


_ENTITY_NODES = {
    0: [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    1: [(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)],
    2: [(0.5, 0.5)],
}


@pytest.mark.parametrize(
    "fam, counts",
    [(Q1, (4, 0, 0)), (Q1B, (4, 0, 1)), (Q2, (4, 4, 1))],
    ids=["q1", "q1b", "q2"],
)
def test_family_table_entities(fam, counts):
    # each function's reference node, read off its two 1-D factors, is
    # the node of its dof entity; the functions come vertices (ccw), then
    # edges (bottom, right, top, left), then the cell
    nodes = [(_1D[a][0], _1D[b][0]) for a, b in zip(fam.fx, fam.fy)]
    ents = fam.entities
    assert fam.ndofs == len(nodes) == sum(counts)
    assert tuple(sum(d == dim for d, _ in ents) for dim in range(3)) == counts
    assert [d for d, _ in ents] == sorted(d for d, _ in ents)
    for (dim, k), node in zip(ents, nodes):
        assert node == _ENTITY_NODES[dim][k]
    for dim in range(3):
        locals_ = [k for d, k in ents if d == dim]
        assert locals_ == list(range(len(locals_)))
    if fam in (Q1, Q2):
        assert np.array_equal(basis_matrix(fam, nodes), np.eye(fam.ndofs))


def _closed_form(fam, pts):
    """The basis and its gradient written out per family."""
    x, y = pts[:, 0], pts[:, 1]
    if fam == Q2:
        lx = [2.0 * x * x - 3.0 * x + 1.0, 4.0 * x * (1.0 - x), x * (2.0 * x - 1.0)]
        ly = [2.0 * y * y - 3.0 * y + 1.0, 4.0 * y * (1.0 - y), y * (2.0 * y - 1.0)]
        dx = [4.0 * x - 3.0, 4.0 - 8.0 * x, 4.0 * x - 1.0]
        dy = [4.0 * y - 3.0, 4.0 - 8.0 * y, 4.0 * y - 1.0]
        idx = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)]
        vals = np.column_stack([lx[i] * ly[j] for i, j in idx])
        grads = np.stack(
            [np.column_stack([dx[i] * ly[j], lx[i] * dy[j]]) for i, j in idx], axis=1
        )
        return vals, grads
    vals = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
    grads = [
        [-(1 - y), -(1 - x)], [1 - y, -x], [y, x], [-y, 1 - x],
    ]
    if fam == Q1B:
        vals.append(16.0 * x * (1 - x) * y * (1 - y))
        grads.append([16.0 * (1 - 2 * x) * y * (1 - y), 16.0 * x * (1 - x) * (1 - 2 * y)])
    return np.column_stack(vals), np.stack([np.column_stack(g) for g in grads], axis=1)


def test_basis_matches_closed_form_bitwise():
    # the Newton of the point location and the transfer's picks depend on
    # q1 staying bitwise; q2 is held to the same, the q1b bubble
    # (a product of two 1-D factors) to 4 ulp
    rng = np.random.default_rng(7)
    pts = np.vstack(
        [rng.uniform(0, 1, (300, 2)), rng.uniform(-0.5, 1.5, (300, 2)),
         gauss_square(3).points, gauss_square(5).points]
    )
    for fam in (Q1, Q2, Q1B):
        vals, grads = basis_matrix(fam, pts), grad_matrix(fam, pts)
        assert vals.flags.c_contiguous and grads.flags.c_contiguous
        v_ref, g_ref = _closed_form(fam, pts)
        if fam == Q1B:
            assert np.array_equal(vals[:, :4], v_ref[:, :4])
            assert np.array_equal(grads[:, :4], g_ref[:, :4])
            for got, ref in ((vals[:, 4], v_ref[:, 4]), (grads[:, 4], g_ref[:, 4])):
                assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))
        else:
            assert np.array_equal(vals, v_ref)
            assert np.array_equal(grads, g_ref)


def test_bubble_values():
    vals = basis_matrix(Q1B, np.vstack([Q1_NODES, [[0.5, 0.5]]]))
    assert vals[:4, :4] == pytest.approx(np.eye(4), abs=1e-15)
    assert vals[:4, 4] == pytest.approx(np.zeros(4), abs=1e-15)
    assert vals[4, 4] == pytest.approx(1.0, abs=1e-15)
    # vanishes on the whole element boundary
    t = np.linspace(0, 1, 17)
    edge = np.vstack(
        [np.column_stack([t, 0 * t]), np.column_stack([t, 0 * t + 1]),
         np.column_stack([0 * t, t]), np.column_stack([0 * t + 1, t])]
    )
    assert np.abs(basis_matrix(Q1B, edge)[:, 4]).max() < 1e-15


def test_partition_of_unity():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(40, 2))
    for fam in (Q1, Q2):
        assert basis_matrix(fam, pts).sum(axis=1) == pytest.approx(
            np.ones(40), abs=1e-13
        )
        assert grad_matrix(fam, pts).sum(axis=1) == pytest.approx(
            np.zeros((40, 2)), abs=1e-12
        )
    # the bilinear part of q1b still sums to one
    assert basis_matrix(Q1B, pts)[:, :4].sum(axis=1) == pytest.approx(
        np.ones(40), abs=1e-13
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, size=(25, 2))
    h = 1e-6
    for fam in (Q1, Q1B, Q2):
        g = grad_matrix(fam, pts)
        for axis in range(2):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, axis] += h
            dm[:, axis] -= h
            fd = (basis_matrix(fam, dp) - basis_matrix(fam, dm)) / (2 * h)
            assert np.abs(g[:, :, axis] - fd).max() < 1e-6


def test_gauss_square_exactness():
    # closed form: int_[0,1]^2 x^a y^b = 1 / ((a+1)(b+1))
    for n in range(1, 7):
        rule = gauss_square(n)
        assert len(rule.weights) == n * n
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all((rule.points >= 0) & (rule.points <= 1))
        for a in range(2 * n):
            for b in range(2 * n):
                val = np.sum(
                    rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b
                )
                assert val == pytest.approx(1.0 / ((a + 1) * (b + 1)), abs=1e-13)
    with pytest.raises(ValueError):
        gauss_square(0)
    with pytest.raises(ValueError):
        gauss_square(7)


def test_gauss_triangle_exactness():
    # closed form on the unit triangle: int x^a y^b = a! b! / (a+b+2)!
    for deg in range(1, 6):
        rule = gauss_triangle(deg)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                val = np.sum(
                    rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b
                )
                exact = (
                    math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                )
                assert val == pytest.approx(exact, abs=1e-13)
    # degree-3 requests get the 6-point degree-4 rule (all weights positive)
    r3 = gauss_triangle(3)
    assert r3.degree == 4 and len(r3.weights) == 6
    with pytest.raises(ValueError):
        gauss_triangle(6)


def test_gauss_triangle_spot_values():
    r2 = gauss_triangle(2)
    assert np.sum(r2.weights * r2.points[:, 0] ** 2) == pytest.approx(
        1.0 / 12.0, abs=1e-15
    )
    r4 = gauss_triangle(4)
    assert np.sum(
        r4.weights * r4.points[:, 0] ** 2 * r4.points[:, 1] ** 2
    ) == pytest.approx(1.0 / 180.0, abs=1e-15)


def test_bubble_integral():
    # int_0^1 16 x(1-x) y(1-y) = 16 * (1/6)^2 = 4/9, exact already at n=2
    rule = gauss_square(2)
    bub = basis_matrix(Q1B, rule.points)[:, 4]
    assert np.sum(rule.weights * bub) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_cell_map_forward_and_corners():
    quad = np.array([[0.0, 0.0], [2.0, 0.2], [2.3, 1.9], [-0.1, 1.4]])
    cm = CellMap(quad)
    assert cm.forward(Q1_NODES) == pytest.approx(quad, abs=1e-15)
    assert cm.forward([[0.5, 0.5]])[0] == pytest.approx(quad.mean(axis=0), abs=1e-14)


def test_cell_map_jacobian_of_rectangle():
    cm = CellMap([[1.0, 2.0], [4.0, 2.0], [4.0, 4.0], [1.0, 4.0]])
    J = cm.jacobian(np.array([[0.3, 0.7]]))[0]
    assert J == pytest.approx(np.diag([3.0, 2.0]), abs=1e-14)


def test_cell_map_inverse_roundtrip():
    rng = np.random.default_rng(2)
    quad = np.array([[0.0, 0.0], [1.5, 0.3], [1.8, 1.6], [-0.2, 1.2]])
    cm = CellMap(quad)
    ref = rng.uniform(-0.2, 1.2, size=(30, 2))
    x = cm.forward(ref)
    back, converged = invert_bilinear(np.broadcast_to(quad, (30, 4, 2)), x)
    assert converged.all()
    assert np.abs(back - ref).max() < 1e-12
    # each lane stops on its own: equal to the one-point scalar Newton
    for k in range(30):
        assert np.array_equal(back[k], cell_map_inverse(quad, x[k])[0])


def test_invert_bilinear_stops_on_singular_jacobian():
    # a quad folded onto a line has det J = 0 everywhere: its lane ends at
    # once, unconverged and NaN, and the other lanes are unaffected
    good = np.array([[0.0, 0.0], [1.5, 0.3], [1.8, 1.6], [-0.2, 1.2]])
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    x = np.array([[0.7, 0.6], [1.0, 1.0]])
    ref, converged = invert_bilinear(np.stack([good, flat]), x)
    assert converged.tolist() == [True, False]
    assert np.isnan(ref[1]).all()
    assert np.array_equal(ref[0], cell_map_inverse(good, x[0])[0])


@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_cell_points_equal_einsum_bitwise(example):
    # the self-convergence transfer locates these points, and its edge
    # tie-breaks hang on their last bit: the node-by-node sum must equal
    # the einsum exactly, on both meshes of a study, levels 0-3
    bg, im, _ = study_meshes(example, 8, 1.0, 4)
    for mesh in bg + im:
        for quad in (_RULE, _ERROR_RULE):
            pts = cell_points(mesh, quad)
            assert pts.shape == (mesh.num_cells, quad.weights.size, 2)
            assert np.array_equal(pts, cell_points_einsum(mesh, quad))
