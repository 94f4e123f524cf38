"""Mesh construction, uniform refinement and point location."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddlm import problems
from fddlm.element import cell_points, gauss_square
from fddlm.mesh import CellLocator, DomainSpec, build_mesh, refine_uniform
from fddlm.runner import build_mesh_sequence
from oracles import CellMap, build_radial_mesh, edge_table, locate

RECT6 = DomainSpec("rectangle", bounds=(0.0, 6.0, 0.0, 6.0), base_cells=6)


def all_cells_ccw_convex(m):
    p = m.nodes[m.cells]
    d = np.roll(p, -1, axis=1) - p
    dn = np.roll(d, -1, axis=1)
    cross = d[..., 0] * dn[..., 1] - d[..., 1] * dn[..., 0]
    return bool(np.all(cross > 0))


def mesh_chain(spec, levels):
    seq = [build_mesh(spec, 0)]
    for _ in range(levels - 1):
        seq.append(refine_uniform(seq[-1]))
    return seq


def test_rectangle_counts_and_h():
    m = build_mesh(RECT6)
    assert (m.num_cells, m.num_nodes, m.num_edges) == (36, 49, 84)
    assert m.h == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert m.cell_areas() == pytest.approx(np.ones(36), abs=1e-13)
    assert m.boundary_nodes.size == 24
    assert int(m.boundary_edge_mask.sum()) == 24
    assert np.all(np.isfinite(m.nodes))


def test_rectangle_aspect_keeps_cells_square():
    m = build_mesh(DomainSpec("rectangle", bounds=(0, 6, 0, 3), base_cells=6))
    assert m.num_cells == 18
    assert m.cell_areas() == pytest.approx(np.ones(18), abs=1e-13)


def test_lshape_area_and_counts():
    m = build_mesh(DomainSpec("lshape", bounds=(1, 3, 1, 3), base_cells=4))
    assert m.num_cells == 12
    assert m.cell_areas().sum() == pytest.approx(3.0, abs=1e-13)
    # notch corner (2, 2) stays, removed quadrant nodes are gone
    d = np.linalg.norm(m.nodes - [2.0, 2.0], axis=1)
    assert d.min() < 1e-14
    assert not np.any((m.nodes[:, 0] > 2 + 1e-9) & (m.nodes[:, 1] > 2 + 1e-9))
    with pytest.raises(ValueError, match="even"):
        build_mesh(DomainSpec("lshape", bounds=(1, 3, 1, 3), base_cells=3))


def test_disk_mesh_geometry():
    spec = DomainSpec("disk", center=(0.5, -0.25), radius=2.0, base_cells=4)
    seq = mesh_chain(spec, 4)
    m0 = seq[0]
    assert m0.num_cells == 5 * 16
    # every boundary node sits on the circle, also after refinement
    for m in (m0, seq[2]):
        r = np.linalg.norm(m.nodes[m.boundary_nodes] - [0.5, -0.25], axis=1)
        assert np.abs(r - 2.0).max() < 1e-12
    errs = [abs(m.cell_areas().sum() - np.pi * 4.0) for m in seq]
    for a, b in zip(errs, errs[1:]):
        assert b < a
        assert 3.0 < a / b < 5.0  # straight edges: quadratic area defect


def test_flower_mesh_geometry():
    spec = DomainSpec("flower", radius=1.0, amplitude=0.1, lobes=5, base_cells=8)
    seq = mesh_chain(spec, 4)
    # area of r(t) = 1 + a cos(5 t): pi (1 + a^2 / 2)
    target = np.pi * (1.0 + 0.005)
    errs = [abs(m.cell_areas().sum() - target) for m in seq]
    assert errs[-1] < errs[0] / 20
    m = seq[2]
    bn = m.nodes[m.boundary_nodes]
    th = np.arctan2(bn[:, 1], bn[:, 0])
    rho = np.linalg.norm(bn, axis=1)
    assert np.abs(rho - (1.0 + 0.1 * np.cos(5 * th))).max() < 1e-12


OFF_CENTRE = [
    DomainSpec("disk", center=(0.5, -0.25), radius=2.0, base_cells=4),
    DomainSpec("flower", center=(0.3, 0.7), radius=1.7, amplitude=0.3, lobes=3, base_cells=4),
]


@pytest.mark.parametrize(
    "spec",
    [DomainSpec(kind, base_cells=n) for kind in ("disk", "flower") for n in range(1, 13)]
    + OFF_CENTRE,
    ids=[f"{kind}-{n}" for kind in ("disk", "flower") for n in range(1, 13)]
    + ["disk-off-centre", "flower-off-centre"],
)
def test_radial_builder_matches_oracle(spec):
    # the array builder and the one-node-at-a-time builder agree bitwise
    m, o = build_mesh(spec, 0), build_radial_mesh(spec, 0)
    for level in range(4):
        if level:
            m, o = refine_uniform(m), refine_uniform(o)
        assert np.array_equal(m.nodes, o.nodes)
        assert np.array_equal(m.cells, o.cells)


def test_disk_ignores_amplitude_and_lobes():
    plain = build_mesh(DomainSpec("disk", amplitude=0.0, base_cells=3), 2)
    other = build_mesh(DomainSpec("disk", amplitude=0.5, lobes=3, base_cells=3), 2)
    assert np.array_equal(plain.nodes, other.nodes)


def test_refine_uniform_nesting():
    m0 = build_mesh(RECT6)
    m1 = refine_uniform(m0)
    assert m1.num_cells == 4 * m0.num_cells
    assert m1.level == m0.level + 1
    # original nodes keep their indices
    assert np.array_equal(m1.nodes[: m0.num_nodes], m0.nodes)
    # children 4c..4c+3 tile their parent (straight cells partition exactly)
    child_sum = m1.cell_areas().reshape(-1, 4).sum(axis=1)
    assert child_sum == pytest.approx(m0.cell_areas(), rel=1e-13)
    # child 4c contains the parent's first vertex
    assert np.array_equal(m1.cells[0::4, 0], m0.cells[:, 0])


def test_build_mesh_level_equals_refine_chain():
    spec = DomainSpec("disk", base_cells=2)
    direct = build_mesh(spec, 2)
    chained = refine_uniform(refine_uniform(build_mesh(spec, 0)))
    assert np.array_equal(direct.cells, chained.cells)
    assert direct.nodes == pytest.approx(chained.nodes, abs=1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        RECT6,
        DomainSpec("lshape", bounds=(1, 3, 1, 3), base_cells=4),
        DomainSpec("disk", base_cells=7),
        DomainSpec("flower", base_cells=12),
    ],
    ids=["rectangle", "lshape", "disk", "flower"],
)
def test_refinement_invariants(spec):
    seq = mesh_chain(spec, 5)
    hs = [m.h for m in seq]
    ratios = [m.cell_areas().min() / m.cell_areas().max() for m in seq]
    for m in seq:
        assert np.all(np.isfinite(m.nodes))
        assert all_cells_ccw_convex(m)
        edges, cell_to_edge, boundary = edge_table(m.cells)
        assert np.array_equal(m.edges, edges)
        assert np.array_equal(m.cell_to_edge, cell_to_edge)
        assert np.array_equal(m.boundary_edge_mask, boundary)
    for k in range(4):
        assert 0.45 <= hs[k + 1] / hs[k] <= 0.55
        # shape regularity cannot collapse under refinement
        assert ratios[k + 1] >= 0.8 * ratios[k]


def test_locator_on_curved_mesh():
    m = build_mesh(DomainSpec("disk", base_cells=4), 1)
    loc = CellLocator(m)
    rng = np.random.default_rng(8)
    r = 0.95 * np.sqrt(rng.uniform(0, 1, 200))
    th = rng.uniform(0, 2 * np.pi, 200)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    cells, refs = loc.locate(pts)
    assert np.all((refs >= 0) & (refs <= 1))
    for k in range(0, 200, 17):
        cm = CellMap(m.nodes[m.cells[cells[k]]])
        assert cm.forward(refs[k : k + 1])[0] == pytest.approx(pts[k], abs=1e-9)
    with pytest.raises(ValueError, match="not inside"):
        loc.locate([[2.0, 0.0]])


@pytest.mark.parametrize("example", [1, 2, 4])
def test_locate_matches_oracle_on_transfers(example):
    # the self-convergence transfer: level k quadrature points located in
    # the level k+2 mesh, background and immersed, with FEFieldRef's slack
    bg = build_mesh_sequence(problems.background_spec(example, 4), 4)
    base = problems.immersed_base_for_ratio(example, bg[0].h, 1.0)
    im = build_mesh_sequence(problems.immersed_spec(example, base), 4)
    fallback = 0
    for seq in (bg, im):
        for k in (0, 1):
            pts = cell_points(seq[k], gauss_square(5)).reshape(-1, 2)
            loc = CellLocator(seq[k + 2])
            cells, refs = loc.locate(pts, slack=1.5)
            ocells, orefs = locate(seq[k + 2], pts, slack=1.5)
            assert np.array_equal(cells, ocells)
            assert np.array_equal(refs, orefs)
            fallback += int((~loc._overlaps(pts, pts).any(axis=1)).sum())
    # the flower level-1 immersed transfer has points in no bounding box
    assert (fallback > 0) == (example == 4)


def test_locate_stops_newton_on_singular_jacobian():
    # just outside the base-1 disk, the far cells' Newton reaches det J = 0;
    # those lanes end as NaN and sort last, so the pick is unchanged
    m = build_mesh(DomainSpec("disk", base_cells=1), 0)
    pts = [[-0.70710681, 5.6e-17]]
    cells, refs = CellLocator(m).locate(pts, slack=1.5)
    assert cells.tolist() == [3]
    assert np.all(np.isfinite(refs))
    with np.errstate(divide="ignore", invalid="ignore"):
        expect = locate(m, pts, slack=1.5)
    assert np.array_equal(cells, expect[0])
    assert np.array_equal(refs, expect[1])


def test_locate_reuses_the_previous_result():
    m = build_mesh(DomainSpec("flower", base_cells=2), 1)
    loc = CellLocator(m)
    pts = 0.5 * m.nodes[m.cells].mean(axis=1)
    first = loc.locate(pts)
    assert loc.locate(pts.copy()) is first
    other = loc.locate(pts[:3])
    assert other is not first
    assert np.array_equal(other[0], first[0][:3])
    assert loc.locate(pts) is not first  # only the last call is kept
    assert loc.locate(pts, slack=1e-8) is not loc.locate(pts)  # nor another slack


def _probe_points(m, data):
    """Points inside cells, on cell edges and corners, and just outside
    the boundary of a mesh."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(0, m.num_cells, 12)
    ref = rng.uniform(0, 1, (12, 2))
    ref[4:8, rng.integers(0, 2)] = rng.integers(0, 2, 4)  # on an edge
    pts = [CellMap(m.nodes[m.cells[c]]).forward(r[None])[0] for c, r in zip(cells, ref)]
    pts += list(m.nodes[rng.integers(0, m.num_nodes, 3)])
    e = m.boundary_edges[rng.integers(0, m.boundary_edges.shape[0], 4)]
    a, b = m.nodes[e[:, 0]], m.nodes[e[:, 1]]
    mid = 0.5 * (a + b)
    normal = np.column_stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]])
    normal *= np.sign(np.sum(normal * (mid - m.nodes.mean(axis=0)), axis=1))[:, None]
    dist = 10.0 ** rng.uniform(-14, -1, (4, 1))
    pts += list(mid + dist * normal)
    return np.asarray(pts)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["disk", "flower"]),
    base=st.integers(1, 3),
    level=st.integers(0, 2),
    data=st.data(),
)
def test_locate_matches_oracle_on_random_points(kind, base, level, data):
    m = build_mesh(DomainSpec(kind, base_cells=base), level)
    pts = _probe_points(m, data)
    for slack in (1e-10, 1.5):
        # a point outside the mesh runs Newton on every cell within 1.5;
        # on a far cell the oracle's iterate can hit a singular Jacobian,
        # which the batched Newton stops at without a warning
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                expect = locate(m, pts, slack)
        except ValueError as err:
            with pytest.raises(ValueError, match="not inside") as got:
                CellLocator(m).locate(pts, slack)
            assert str(got.value) == str(err)
            continue
        cells, refs = CellLocator(m).locate(pts, slack)
        assert np.array_equal(cells, expect[0])
        assert np.array_equal(refs, expect[1])


def test_domain_spec_validation():
    with pytest.raises(ValueError, match="unknown domain kind"):
        build_mesh(DomainSpec("hexagon"))
    with pytest.raises(ValueError, match="level"):
        build_mesh(RECT6, -1)
    with pytest.raises(ValueError, match="bounds"):
        build_mesh(DomainSpec("rectangle"))
    with pytest.raises(ValueError, match="bounds"):
        build_mesh(DomainSpec("rectangle", bounds=(1, 0, 0, 1)))
    with pytest.raises(ValueError, match="base_cells"):
        build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=0))
    with pytest.raises(ValueError, match="radius"):
        build_mesh(DomainSpec("disk", radius=-1.0))
    with pytest.raises(ValueError, match="amplitude"):
        build_mesh(DomainSpec("flower", amplitude=1.5))
