"""Cross-mesh coupling: exact clipping quadrature and pairing matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddlm.coupling import (
    CoverageError,
    assemble_C1,
    assemble_C2,
    build_intersections,
)
from fddlm.element import P0, Q1, Q1B, Q2, CellMap, basis_matrix
from fddlm.geometry import clip_convex
from fddlm.mesh import DomainSpec, QuadMesh, build_mesh
from fddlm.space import build_space


def patch(x0, x1, y0, y1, n=1):
    return build_mesh(DomainSpec("square_patch", bounds=(x0, x1, y0, y1), base_cells=n))


def test_fragments_of_offset_cell():
    t = patch(0, 2, 0, 2, n=2)  # four unit background cells
    t2 = patch(0.25, 1.25, 0.25, 1.25)  # one immersed cell across all four
    table = build_intersections(t2, t)
    assert table.cell.tolist() == [0, 0, 0, 0]
    assert table.bg_cell.tolist() == [0, 1, 2, 3]
    areas = np.add.reduceat(table.weights, table.ptr[:-1])
    assert areas == pytest.approx([0.5625, 0.1875, 0.1875, 0.0625], abs=1e-14)
    assert np.all(table.weights > 0)
    assert table.num_fragments == 4


@pytest.mark.parametrize("fam", [Q1, Q2])
def test_c1_matches_per_fragment_newton_oracle(fam):
    # the per-fragment path: Newton inverse of the bilinear background
    # cell map, basis values and weights, one fragment at a time
    t = build_mesh(DomainSpec("rectangle", bounds=(-1.3, 1.4, -1.35, 1.3), base_cells=8), 1)
    t2 = build_mesh(DomainSpec("flower", base_cells=3), 1)
    table = build_intersections(t2, t)
    lh = build_space(t2, P0)
    vh = build_space(t, fam)
    oracle = np.zeros((lh.ndofs, vh.ndofs))
    for k in range(table.num_fragments):
        q = slice(table.ptr[k], table.ptr[k + 1])
        c = table.bg_cell[k]
        refs = CellMap(t.nodes[t.cells[c]]).inverse(table.points[q])
        oracle[table.cell[k], vh.dof_map[c]] += table.weights[q] @ basis_matrix(fam, refs)
    C1 = assemble_C1(table, lh, vh).toarray()
    assert np.abs(C1 - oracle).max() <= 1e-13 * np.abs(oracle).max()


@settings(max_examples=40, deadline=None)
@given(
    origin=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    width=st.floats(0.1, 20),
    aspect=st.floats(0.5, 2),
    base=st.integers(1, 3),
    level=st.integers(0, 2),
    corner=st.tuples(st.integers(0, 11), st.floats(0, 1), st.integers(0, 11), st.floats(0, 1)),
    size=st.tuples(st.floats(0.5, 3), st.floats(0.5, 3)),
    n=st.integers(1, 2),
)
def test_pairs_match_brute_force_clipping(origin, width, aspect, base, level, corner, size, n):
    # immersed patch corners land on grid lines (fraction 0) or anywhere
    # between them, so the index arithmetic is probed at cell boundaries;
    # the origin scales with the box, because the shoelace cell areas the
    # coverage check compares against lose digits far from the origin
    x0, y0 = origin[0] * width, origin[1] * width
    t = build_mesh(
        DomainSpec("rectangle", bounds=(x0, x0 + width, y0, y0 + aspect * width), base_cells=base),
        level,
    )
    x1 = t.nodes[:, 0].max()
    y1 = t.nodes[:, 1].max()
    ncol = base * 2**level
    nrow = t.num_cells // ncol
    hx = (x1 - x0) / ncol
    hy = (y1 - y0) / nrow
    w2 = min(hx * size[0], x1 - x0)
    h2 = min(hy * size[1], y1 - y0)
    i, fx, j, fy = corner
    px = min(x0 + hx * (i % ncol + fx), x1 - w2)
    py = min(y0 + hy * (j % nrow + fy), y1 - h2)
    t2 = patch(px, px + w2, py, py + h2, n)
    table = build_intersections(t2, t)
    pairs = list(zip(table.cell.tolist(), table.bg_cell.tolist()))
    brute = [
        (a, b)
        for a in range(t2.num_cells)
        for b in range(t.num_cells)
        if clip_convex(t2.nodes[t2.cells[a]], t.nodes[t.cells[b]]) is not None
    ]
    assert pairs == brute


def test_non_grid_background_rejected():
    t2 = patch(-0.2, 0.2, -0.2, 0.2)
    disk = build_mesh(DomainSpec("disk", base_cells=2))
    grid = build_mesh(DomainSpec("rectangle", bounds=(-1, 1, -1, 1), base_cells=4))
    sheared = QuadMesh(grid.nodes + np.outer(grid.nodes[:, 1], [0.1, 0.0]), grid.cells)
    graded = QuadMesh(np.sign(grid.nodes) * grid.nodes**2, grid.cells)
    for t in (disk, sheared, graded):
        with pytest.raises(ValueError, match="uniform axis-aligned grid"):
            build_intersections(t2, t)


def test_coverage_error_names_cell():
    t = patch(0, 1, 0, 1)
    t2 = patch(-0.5, 0.5, 0.0, 1.0)  # sticks out of the background box
    with pytest.raises(CoverageError, match="immersed cell 0"):
        build_intersections(t2, t)


def test_c1_single_cell_oracle():
    # int_{[0.5,1]^2} (1.5-x)(1.5-y) = 0.375^2 = 0.140625: the basis of
    # background node (0.5, 0.5) integrated over the immersed cell
    t = patch(0.5, 1.5, 0.5, 1.5)
    t2 = patch(0.5, 1.0, 0.5, 1.0)
    vh = build_space(t, Q1)
    lh = build_space(t2, P0)
    C1 = assemble_C1(build_intersections(t2, t), lh, vh).toarray()
    j = int(np.argmin(np.linalg.norm(t.nodes - [0.5, 0.5], axis=1)))
    assert C1[0, j] == pytest.approx(0.140625, abs=1e-13)
    assert C1[0].sum() == pytest.approx(0.25, rel=1e-13)  # |K_i|


def test_c1_interior_node_entry():
    # immersed K_i = [0,1]^2 over a background grid with a node at the
    # centre: all four quadrant contributions are 0.140625 by symmetry
    t = patch(-0.5, 1.5, -0.5, 1.5, n=2)
    t2 = patch(0.0, 1.0, 0.0, 1.0)
    vh = build_space(t, Q1)
    lh = build_space(t2, P0)
    C1 = assemble_C1(build_intersections(t2, t), lh, vh).toarray()
    j = int(np.argmin(np.linalg.norm(t.nodes - [0.5, 0.5], axis=1)))
    assert C1[0, j] == pytest.approx(0.5625, abs=1e-13)
    assert C1[0].sum() == pytest.approx(1.0, rel=1e-13)


def test_c1_q2_center_dof_oracle():
    # background [0,2]^2 single q2 cell: centre basis 4s(1-s) 4t(1-t) with
    # s=x/2; over [0,1]^2 each factor integrates to 2/3
    t = patch(0, 2, 0, 2)
    t2 = patch(0, 1, 0, 1)
    vh = build_space(t, Q2)
    lh = build_space(t2, P0)
    C1 = assemble_C1(build_intersections(t2, t), lh, vh).toarray()
    center_dof = vh.dof_map[0, 8]
    assert C1[0, center_dof] == pytest.approx(4.0 / 9.0, abs=1e-13)
    assert C1[0].sum() == pytest.approx(1.0, rel=1e-13)


def test_c1_row_sums_are_cell_areas():
    t = build_mesh(DomainSpec("rectangle", bounds=(-1.4, 1.4, -1.4, 1.4), base_cells=8))
    t2 = build_mesh(DomainSpec("disk", base_cells=2), 1)
    table = build_intersections(t2, t)
    for vh in (build_space(t, Q1), build_space(t, Q2)):
        C1 = assemble_C1(table, build_space(t2, P0), vh)
        sums = np.asarray(C1.sum(axis=1)).ravel()
        assert sums == pytest.approx(t2.cell_areas(), rel=1e-12)


def test_c2_unit_cell_oracles():
    t2 = patch(0, 1, 0, 1)
    lh = build_space(t2, P0)
    c2_q1 = assemble_C2(lh, build_space(t2, Q1)).toarray()
    assert c2_q1 == pytest.approx(np.full((1, 4), 0.25), abs=1e-14)
    c2_bub = assemble_C2(lh, build_space(t2, Q1B)).toarray()
    assert c2_bub[0, :4] == pytest.approx(np.full(4, 0.25), abs=1e-14)
    assert c2_bub[0, 4] == pytest.approx(4.0 / 9.0, abs=1e-14)
    c2_q2 = assemble_C2(lh, build_space(t2, Q2)).toarray()[0]
    v2 = build_space(t2, Q2)
    corner = v2.dof_map[0, :4]
    edge = v2.dof_map[0, 4:8]
    center = v2.dof_map[0, 8]
    assert c2_q2[corner] == pytest.approx(np.full(4, 1.0 / 36.0), abs=1e-14)
    assert c2_q2[edge] == pytest.approx(np.full(4, 1.0 / 9.0), abs=1e-14)
    assert c2_q2[center] == pytest.approx(4.0 / 9.0, abs=1e-14)


def test_c2_row_sums_on_curved_mesh():
    t2 = build_mesh(DomainSpec("flower", base_cells=4), 1)
    lh = build_space(t2, P0)
    for fam in (Q1, Q2):
        C2 = assemble_C2(lh, build_space(t2, fam))
        sums = np.asarray(C2.sum(axis=1)).ravel()
        assert sums == pytest.approx(t2.cell_areas(), rel=1e-12)


def test_aligned_meshes_give_identical_pairings():
    t = patch(0, 1, 0, 1, n=2)
    t2 = patch(0, 1, 0, 1, n=2)
    vh = build_space(t, Q1)
    v2 = build_space(t2, Q1)
    lh = build_space(t2, P0)
    table = build_intersections(t2, t)
    # every cell clips to exactly itself; edge-sharing neighbours yield
    # sliver-suppressed empty intersections
    assert table.cell.tolist() == [0, 1, 2, 3]
    assert table.bg_cell.tolist() == [0, 1, 2, 3]
    C1 = assemble_C1(table, lh, vh).toarray()
    C2 = assemble_C2(lh, v2).toarray()
    assert C1 == pytest.approx(C2, abs=1e-14)


def test_validation_errors():
    t = patch(0, 2, 0, 2, n=2)
    t2 = patch(0.5, 1.5, 0.5, 1.5)
    table = build_intersections(t2, t)
    vh = build_space(t, Q1)
    with pytest.raises(ValueError, match="p0"):
        assemble_C1(table, build_space(t2, Q1), vh)
    with pytest.raises(ValueError, match="match"):
        assemble_C1(table, build_space(patch(0.5, 1.5, 0.5, 1.5), P0), vh)
    with pytest.raises(ValueError, match="share a mesh"):
        assemble_C2(build_space(t2, P0), build_space(t, Q1))
