"""Cross-mesh coupling: exact cut-cell moments and pairing matrices."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import fddlm.coupling as coupling_module
from fddlm import problems
from fddlm.coupling import (
    CoverageError,
    _grid,
    assemble_C1,
    assemble_C2,
    build_intersections,
)
from fddlm.element import Q1, Q1B, Q2, basis_matrix
from fddlm.mesh import DomainSpec, QuadMesh, build_mesh
from fddlm.runner import build_mesh_sequence, solve_level
from fddlm.space import build_space
from fddlm.system import error_norms
from oracles import cell_map_inverse, clip_convex, fan_rule, traced_peak


def patch(x0, x1, y0, y1, n=1):
    return build_mesh(DomainSpec("square_patch", bounds=(x0, x1, y0, y1), base_cells=n))


def test_fragments_of_offset_cell():
    t = patch(0, 2, 0, 2, n=2)  # four unit background cells
    t2 = patch(0.25, 1.25, 0.25, 1.25)  # one immersed cell across all four
    table = build_intersections(t2, t)
    assert table.cell.tolist() == [0, 0, 0, 0]
    assert table.bg_cell.tolist() == [0, 1, 2, 3]
    areas = table.moments[:, 0, 0]
    assert areas == pytest.approx([0.5625, 0.1875, 0.1875, 0.0625], abs=1e-14)
    assert table.num_fragments == 4


def per_pair_fragments(t2, t):
    """(immersed cell, background cell, fan_rule points, weights) of every
    non-empty piece, clipped one pair at a time with clip_convex. The
    degree-4 fan rule is exact for the Q2 basis on an affine background
    cell."""
    xs, ys, index = _grid(t)
    polys = t2.nodes[t2.cells]
    top = np.array(index.shape[::-1]) - 1
    # every cell whose closed box meets the bounding box, touching ones too
    lo, hi = polys.min(axis=1), polys.max(axis=1)
    first = np.column_stack([np.searchsorted(xs, lo[:, 0]), np.searchsorted(ys, lo[:, 1])])
    last = np.column_stack(
        [np.searchsorted(xs, hi[:, 0], "right"), np.searchsorted(ys, hi[:, 1], "right")]
    )
    first, last = np.clip(first - 1, 0, top), np.clip(last - 1, 0, top)
    out = []
    for i in range(t2.num_cells):
        (c0, r0), (c1, r1) = first[i], last[i]
        for c in np.sort(index[r0 : r1 + 1, c0 : c1 + 1], axis=None):
            piece = clip_convex(polys[i], t.nodes[t.cells[c]])
            if piece is not None:
                out.append((i, c, *fan_rule(piece)))
    return out


@pytest.mark.parametrize(
    "example, ratio", [(3, 1.0), (4, 1.0), (3, 1.08)], ids=["3", "4", "3-1.08"]
)
def test_table_matches_per_pair_clipping(example, ratio):
    # the disk at ratios 1 and 1.08 and the flower, as the studies run them
    bg = build_mesh_sequence(problems.background_spec(example, 16), 3)
    base = problems.immersed_base_for_ratio(example, bg[0].h, ratio)
    im = build_mesh_sequence(problems.immersed_spec(example, base), 3)
    e = np.arange(3)
    for t, t2 in zip(bg, im):
        table = build_intersections(t2, t)
        frags = per_pair_fragments(t2, t)
        cell = np.array([f[0] for f in frags])
        bg_cell = np.array([f[1] for f in frags])
        assert np.array_equal(table.cell, cell)
        assert np.array_equal(table.bg_cell, bg_cell)
        X = t.nodes[t.cells[bg_cell]]
        xis = [(pts - x[0]) / (x[2] - x[0]) for (_, _, pts, _), x in zip(frags, X)]
        ref = np.array(
            [
                np.einsum("k,kp,kq->pq", wts, xi[:, :1] ** e, xi[:, 1:] ** e)
                for (_, _, _, wts), xi in zip(frags, xis)
            ]
        )
        assert np.abs(table.moments - ref).max() <= 1e-13 * np.abs(ref).max()
        for fam in (Q1, Q2):
            vh = build_space(t, fam)
            vals = [wts @ basis_matrix(fam, xi) for (_, _, _, wts), xi in zip(frags, xis)]
            oracle = sp.coo_matrix(
                (np.ravel(vals), (np.repeat(cell, fam.ndofs), vh.dof_map[bg_cell].ravel())),
                shape=(t2.num_cells, vh.ndofs),
            ).tocsr()
            C1 = assemble_C1(table, vh)
            assert abs(C1 - oracle).max() <= 1e-13 * abs(oracle).max()


@pytest.mark.parametrize("fam", [Q1, Q2])
def test_c1_matches_per_fragment_newton_oracle(fam):
    # the per-fragment path: triangle rule on each clipped piece, Newton
    # inverse of the bilinear background cell map, basis values and
    # weights, one fragment at a time
    t = build_mesh(DomainSpec("rectangle", bounds=(-1.3, 1.4, -1.35, 1.3), base_cells=8), 1)
    t2 = build_mesh(DomainSpec("flower", base_cells=3), 1)
    vh = build_space(t, fam)
    oracle = np.zeros((t2.num_cells, vh.ndofs))
    for i, c, pts, wts in per_pair_fragments(t2, t):
        refs = cell_map_inverse(t.nodes[t.cells[c]], pts)
        oracle[i, vh.dof_map[c]] += wts @ basis_matrix(fam, refs)
    C1 = assemble_C1(build_intersections(t2, t), vh).toarray()
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
    # between them, so the search of the grid lines is probed at cell boundaries
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


@pytest.mark.parametrize("poke", [1e-11, 1e-10, 1e-9])
def test_corner_slivers_are_dropped(poke):
    # a diamond whose four corners poke past the grid lines of its cell
    # clips to a triangle of area ~poke^2 in each neighbour; below
    # SLIVER_RTOL of the cell area, they hold no fragment
    t = patch(-1, 2, -1, 2, n=3)
    r = 0.5 + poke
    diamond = np.array([[0.5 + r, 0.5], [0.5, 0.5 + r], [0.5 - r, 0.5], [0.5, 0.5 - r]])
    t2 = QuadMesh(diamond, [[3, 0, 1, 2]])
    table = build_intersections(t2, t)
    hits = [c for c in range(t.num_cells) if clip_convex(diamond, t.nodes[t.cells[c]]) is not None]
    assert len(hits) == 1  # the diamond's own cell
    assert table.cell.tolist() == [0]
    assert table.bg_cell.tolist() == hits


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


def test_small_cells_far_from_origin_are_covered():
    # cell areas taken on absolute coordinates lose digits for cells of
    # side ~1e-3 at distance ~2 from the origin, and the coverage check
    # then rejects valid input
    t = patch(0, 4, 0, 4, n=128)
    rng = np.random.default_rng(0)
    for _ in range(40):
        side = rng.uniform(0.001, 0.004)
        x0, y0 = rng.uniform(1, 3, size=2)
        t2 = patch(x0, x0 + side, y0, y0 + side)
        assert t2.cell_areas() == pytest.approx([side * side], rel=1e-12)
        table = build_intersections(t2, t)
        assert table.moments[:, 0, 0].sum() == pytest.approx(side * side, rel=1e-12)


def study_level(example, level, ratio=1.0):
    """Background and immersed meshes of a study level (base 16)."""
    bg = build_mesh_sequence(problems.background_spec(example, 16), level + 1)
    base = problems.immersed_base_for_ratio(example, bg[0].h, ratio)
    return bg[level], build_mesh(problems.immersed_spec(example, base), level)


@pytest.mark.parametrize("example", [3, 4])
def test_blocked_moments_equal_one_shot(example, monkeypatch):
    # 7 rows a block splits the candidate runs of most immersed cells; the
    # kernel treats each row on its own, so every block size gives the same
    # bits. At level 2 (64^2 background cells) the default size makes
    # several blocks too
    t, t2 = study_level(example, 2)
    with monkeypatch.context() as mp:
        mp.setattr(coupling_module, "_BLOCK_ROWS", 1 << 62)
        ref = build_intersections(t2, t)
    candidates = ref.num_fragments  # a lower bound: slivers are dropped
    assert candidates > coupling_module._BLOCK_ROWS
    for rows in (7, coupling_module._BLOCK_ROWS):
        monkeypatch.setattr(coupling_module, "_BLOCK_ROWS", rows)
        table = build_intersections(t2, t)
        assert np.array_equal(table.cell, ref.cell)
        assert np.array_equal(table.bg_cell, ref.bg_cell)
        assert np.array_equal(table.moments, ref.moments)


def translated_study(T, levels):
    """Background and immersed meshes of ex 3 (base 16, ratio 1), box and
    disk moved by (T, T)."""
    box = problems.background_spec(3, 16)
    moved = tuple(np.add(box.bounds, T))
    bg = build_mesh_sequence(dataclasses.replace(box, bounds=moved), levels)
    disk = problems.immersed_spec(3, problems.immersed_base_for_ratio(3, bg[0].h, 1.0))
    return bg, build_mesh_sequence(dataclasses.replace(disk, center=(T, T)), levels)


@pytest.mark.parametrize("T", [1e4, 3e4, 1e5, 1e6])
def test_translated_disk_gives_the_same_fragments(T):
    # every candidate box is read from the moved box's lattice, exactly; at
    # these T the disk's nodes on its axes also stay on the box's middle
    # lines, as at the origin, so the same pieces are cut. A grid inferred
    # from the nodes within a tolerance raised CoverageError at 128^2 from
    # T = 10^4 on
    counts = []
    for t0, t20, t, t2 in zip(*translated_study(0.0, 4), *translated_study(T, 4)):
        ref, table = build_intersections(t20, t0), build_intersections(t2, t)
        assert np.array_equal(table.cell, ref.cell)
        assert np.array_equal(table.bg_cell, ref.bg_cell)
        counts.append(table.num_fragments)
    assert counts == [736, 2828, 11552, 46712]


@settings(max_examples=8, deadline=None)
@given(T=st.floats(-1e6, 1e6))
def test_translated_disk_is_covered(T):
    # at other T the disk's axis nodes may miss the middle lines by an ulp
    # and cut slivers, so only coverage is checked: build_intersections
    # raises CoverageError when it fails
    for t, t2 in zip(*translated_study(T, 4)):
        build_intersections(t2, t)


def shifted_errors(T, levels):
    """elm1 case-1 error norms on the moved ex 3 levels, against the
    closed-form solution moved with them."""

    def moved(f):
        return lambda x, y: f(x - T, y - T)

    ex = {k: moved(f) for k, f in problems.exact_solution(3, 1).items()}
    out = []
    for t, t2 in zip(*translated_study(T, levels)):
        d = solve_level(t, t2, "elm1", *problems.CASES[1], g=ex["u1"])
        e = error_norms(d.sol, d.vh, d.v2, ex["u"], ex["grad_u"], ex["u2"], ex["grad_u2"])
        out.append([e["L2_u"], e["H1_u"], e["L2_u2"], e["H1_u2"]])
    return np.array(out)


@pytest.mark.parametrize("T", [1e4, 3e4, 1e5, 1e6])
def test_translated_disk_errors_match_the_origin(T):
    # the residue is the rounding of the moved coordinates themselves: the
    # norms moved by <= 2.4e-9 at 10^4, 9.1e-9 at 10^5 and 2.1e-7 at 10^6
    ref = shifted_errors(0.0, 3)
    assert np.abs(shifted_errors(T, 3) / ref - 1).max() <= 1e-6


def test_intersection_memory_is_bounded():
    # disk, 64^2 background cells, ratio 1: the single-call kernel peaked
    # at 22.2 MB of Python-traced allocations, blocked it takes 5.6 MB
    t, t2 = study_level(3, 2)
    assert traced_peak(lambda: build_intersections(t2, t)) < 10 * 2**20


def test_c1_single_cell_oracle():
    # int_{[0.5,1]^2} (1.5-x)(1.5-y) = 0.375^2 = 0.140625: the basis of
    # background node (0.5, 0.5) integrated over the immersed cell
    t = patch(0.5, 1.5, 0.5, 1.5)
    t2 = patch(0.5, 1.0, 0.5, 1.0)
    vh = build_space(t, Q1)
    C1 = assemble_C1(build_intersections(t2, t), vh).toarray()
    j = int(np.argmin(np.linalg.norm(t.nodes - [0.5, 0.5], axis=1)))
    assert C1[0, j] == pytest.approx(0.140625, abs=1e-13)
    assert C1[0].sum() == pytest.approx(0.25, rel=1e-13)  # |K_i|


def test_c1_interior_node_entry():
    # immersed K_i = [0,1]^2 over a background grid with a node at the
    # centre: all four quadrant contributions are 0.140625 by symmetry
    t = patch(-0.5, 1.5, -0.5, 1.5, n=2)
    t2 = patch(0.0, 1.0, 0.0, 1.0)
    vh = build_space(t, Q1)
    C1 = assemble_C1(build_intersections(t2, t), vh).toarray()
    j = int(np.argmin(np.linalg.norm(t.nodes - [0.5, 0.5], axis=1)))
    assert C1[0, j] == pytest.approx(0.5625, abs=1e-13)
    assert C1[0].sum() == pytest.approx(1.0, rel=1e-13)


def test_c1_q2_center_dof_oracle():
    # background [0,2]^2 single q2 cell: centre basis 4s(1-s) 4t(1-t) with
    # s=x/2; over [0,1]^2 each factor integrates to 2/3
    t = patch(0, 2, 0, 2)
    t2 = patch(0, 1, 0, 1)
    vh = build_space(t, Q2)
    C1 = assemble_C1(build_intersections(t2, t), vh).toarray()
    center_dof = vh.dof_map[0, 8]
    assert C1[0, center_dof] == pytest.approx(4.0 / 9.0, abs=1e-13)
    assert C1[0].sum() == pytest.approx(1.0, rel=1e-13)


def test_c1_row_sums_are_cell_areas():
    t = build_mesh(DomainSpec("rectangle", bounds=(-1.4, 1.4, -1.4, 1.4), base_cells=8))
    t2 = build_mesh(DomainSpec("disk", base_cells=2), 1)
    table = build_intersections(t2, t)
    for vh in (build_space(t, Q1), build_space(t, Q2)):
        C1 = assemble_C1(table, vh)
        sums = np.asarray(C1.sum(axis=1)).ravel()
        assert sums == pytest.approx(t2.cell_areas(), rel=1e-12)


def test_c2_unit_cell_oracles():
    t2 = patch(0, 1, 0, 1)
    c2_q1 = assemble_C2(build_space(t2, Q1)).toarray()
    assert c2_q1 == pytest.approx(np.full((1, 4), 0.25), abs=1e-14)
    c2_bub = assemble_C2(build_space(t2, Q1B)).toarray()
    assert c2_bub[0, :4] == pytest.approx(np.full(4, 0.25), abs=1e-14)
    assert c2_bub[0, 4] == pytest.approx(4.0 / 9.0, abs=1e-14)
    c2_q2 = assemble_C2(build_space(t2, Q2)).toarray()[0]
    v2 = build_space(t2, Q2)
    corner = v2.dof_map[0, :4]
    edge = v2.dof_map[0, 4:8]
    center = v2.dof_map[0, 8]
    assert c2_q2[corner] == pytest.approx(np.full(4, 1.0 / 36.0), abs=1e-14)
    assert c2_q2[edge] == pytest.approx(np.full(4, 1.0 / 9.0), abs=1e-14)
    assert c2_q2[center] == pytest.approx(4.0 / 9.0, abs=1e-14)


def test_c2_row_sums_on_curved_mesh():
    t2 = build_mesh(DomainSpec("flower", base_cells=4), 1)
    for fam in (Q1, Q2):
        C2 = assemble_C2(build_space(t2, fam))
        sums = np.asarray(C2.sum(axis=1)).ravel()
        assert sums == pytest.approx(t2.cell_areas(), rel=1e-12)


def test_aligned_meshes_give_identical_pairings():
    t = patch(0, 1, 0, 1, n=2)
    t2 = patch(0, 1, 0, 1, n=2)
    vh = build_space(t, Q1)
    v2 = build_space(t2, Q1)
    table = build_intersections(t2, t)
    # every cell clips to exactly itself; edge-sharing neighbours yield
    # sliver-suppressed empty intersections
    assert table.cell.tolist() == [0, 1, 2, 3]
    assert table.bg_cell.tolist() == [0, 1, 2, 3]
    C1 = assemble_C1(table, vh).toarray()
    C2 = assemble_C2(v2).toarray()
    assert C1 == pytest.approx(C2, abs=1e-14)


def test_validation_errors():
    # C1 needs the background space of the mesh the table was built on
    table = build_intersections(patch(0.5, 1.5, 0.5, 1.5), patch(0, 2, 0, 2, n=2))
    with pytest.raises(ValueError, match="match"):
        assemble_C1(table, build_space(patch(0, 2, 0, 2, n=2), Q1))
