"""Dof layout, interpolation and point evaluation of the fe spaces."""

import numpy as np
import pytest

from fddlm.element import Q1, Q1B, Q2
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.space import (
    DirichletBC,
    build_space,
    dirichlet_bc,
    dirichlet_dofs,
    evaluate,
    evaluate_grad,
)
from oracles import interpolate

UNIT2 = DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=2)


def test_dof_counts_on_2x2():
    m = build_mesh(UNIT2)
    assert build_space(m, Q1).ndofs == 9
    assert build_space(m, Q1B).ndofs == 13
    assert build_space(m, Q2).ndofs == 25  # 9 nodes + 12 edges + 4 cells
    for fam in (Q1, Q1B, Q2):
        s = build_space(m, fam)
        assert s.dof_map.shape == (4, fam.ndofs)
        assert s.dof_map.min() >= 0 and s.dof_map.max() < s.ndofs
        assert s.dof_coords.shape == (s.ndofs, 2)


def test_q1_reproduces_affine():
    m = build_mesh(UNIT2, 1)
    s = build_space(m, Q1)
    g = lambda x, y: 2.0 * x - 3.0 * y + 1.0
    c = interpolate(s, g)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.01, 0.99, size=(50, 2))
    assert evaluate(s, c, pts) == pytest.approx(g(pts[:, 0], pts[:, 1]), abs=1e-13)
    grads = evaluate_grad(s, c, pts)
    assert grads == pytest.approx(np.tile([2.0, -3.0], (50, 1)), abs=1e-12)


def test_q2_reproduces_quadratics_on_curved_cells():
    # pullbacks of quadratics under the bilinear cell maps stay inside the
    # tensor space, so nodal interpolation is exact even on the disk mesh
    m = build_mesh(DomainSpec("disk", base_cells=2), 1)
    s = build_space(m, Q2)
    g = lambda x, y: (31.0 - x * x - y * y) / 40.0
    c = interpolate(s, g)
    rng = np.random.default_rng(5)
    r = 0.9 * np.sqrt(rng.uniform(0, 1, 100))
    th = rng.uniform(0, 2 * np.pi, 100)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    assert evaluate(s, c, pts) == pytest.approx(g(pts[:, 0], pts[:, 1]), abs=1e-12)
    grads = evaluate_grad(s, c, pts)
    exact = np.column_stack([-pts[:, 0] / 20.0, -pts[:, 1] / 20.0])
    assert grads == pytest.approx(exact, abs=1e-10)


def test_interpolate_bubble():
    m = build_mesh(UNIT2)
    sb = build_space(m, Q1B)
    c = interpolate(sb, lambda x, y: x + y)
    assert np.all(c[m.num_nodes:] == 0.0)  # bubbles carry no nodal value


_LEVEL2_DOMAINS = {
    "rectangle": DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=2),
    "lshape": DomainSpec("lshape", bounds=(-1, 1, -1, 1), base_cells=2),
    "disk": DomainSpec("disk", base_cells=2),
    "flower": DomainSpec("flower", base_cells=2),
}


@pytest.mark.parametrize("fam", [Q1, Q1B, Q2], ids=["q1", "q1b", "q2"])
@pytest.mark.parametrize("domain", list(_LEVEL2_DOMAINS))
def test_dof_layout_matches_explicit_oracle(domain, fam):
    # the layout written out per family: vertex dofs are the node ids,
    # edge dofs follow them, cell dofs come last
    m = build_mesh(_LEVEL2_DOMAINS[domain], 2)
    nn, ne, mc = m.num_nodes, m.num_edges, m.num_cells
    cells = np.arange(mc)[:, None]
    bnd_edges = nn + np.nonzero(m.boundary_edge_mask)[0]
    dof_map, ndofs, bnd = {
        Q1: (m.cells, nn, m.boundary_nodes),
        Q1B: (np.hstack([m.cells, nn + cells]), nn + mc, m.boundary_nodes),
        Q2: (
            np.hstack([m.cells, nn + m.cell_to_edge, nn + ne + cells]),
            nn + ne + mc,
            np.sort(np.concatenate([m.boundary_nodes, bnd_edges])),
        ),
    }[fam]
    s = build_space(m, fam)
    assert np.array_equal(s.dof_map, dof_map)
    assert s.ndofs == ndofs
    assert np.array_equal(dirichlet_dofs(s), bnd)


def test_cell_dofs_sit_at_vertex_means():
    # flower cells are not parallelograms, so the vertex mean (the
    # bilinear image of the reference centre) is not the area centroid
    m = build_mesh(DomainSpec("flower", base_cells=2), 1)
    means = m.nodes[m.cells].mean(axis=1)
    for fam in (Q1B, Q2):
        s = build_space(m, fam)
        assert np.array_equal(s.dof_coords[s.ndofs - m.num_cells:], means)


def test_dirichlet_dofs_by_family():
    m = build_mesh(UNIT2)
    assert np.array_equal(dirichlet_dofs(build_space(m, Q1)), m.boundary_nodes)
    assert dirichlet_dofs(build_space(m, Q1B)).size == 8  # no bubble dofs
    q2d = dirichlet_dofs(build_space(m, Q2))
    assert q2d.size == 16  # 8 boundary nodes + 8 boundary edges
    assert np.all(np.diff(q2d) > 0)


def test_dirichlet_bc_values():
    m = build_mesh(UNIT2)
    s = build_space(m, Q2)
    g = lambda x, y: x - 0.5 * y
    bc = dirichlet_bc(s, g)
    coords = s.dof_coords[bc.dofs]
    assert bc.values == pytest.approx(g(coords[:, 0], coords[:, 1]), abs=1e-14)
    hom = dirichlet_bc(s)
    assert np.all(hom.values == 0.0)
    with pytest.raises(ValueError, match="values"):
        DirichletBC([1, 2, 3], values=[0.0])
