"""Finite element spaces on quad meshes: dof maps, boundary dofs, evaluation.

Each basis function of a family carries its dof on a mesh entity (see
``fddlm.element``). Global dof ordering: vertex dofs first (mesh node
order), then edge dofs (lexicographic sorted-node-pair order), then cell
dofs (cell order). For q1/q1b/q2 the dof index of a mesh node equals the
node index.
"""

import numpy as np

from . import element as el
from .mesh import CellLocator

__all__ = [
    "FeSpace",
    "build_space",
    "dirichlet_dofs",
    "DirichletBC",
    "dirichlet_bc",
    "evaluate",
    "evaluate_grad",
]


class FeSpace:
    """A scalar finite element space.

    Attributes
    ----------
    mesh : QuadMesh
    family : ElementFamily
    dof_map : (M, ndofs_local) int array
    ndofs : int
    dof_coords : (ndofs, 2) float array
        Interpolation points: node coordinates for vertex dofs, edge
        midpoints for edge dofs and vertex means, the bilinear image of
        (0.5, 0.5), for cell dofs.
    """

    def __init__(self, mesh, fam, dof_map, ndofs, dof_coords):
        self.mesh = mesh
        self.family = fam
        self.dof_map = dof_map
        self.ndofs = ndofs
        self.dof_coords = dof_coords

    def __repr__(self):
        return f"FeSpace({self.family.tag}, ndofs={self.ndofs}, cells={self.mesh.num_cells})"


def _entities(mesh, dim):
    """Per-cell ids (M, 4 or 1) and coordinates of a mesh's vertices
    (dim 0), edges (dim 1) or cells (dim 2)."""
    x = mesh.nodes
    if dim == 0:
        return mesh.cells, x
    if dim == 1:
        return mesh.cell_to_edge, 0.5 * (x[mesh.edges[:, 0]] + x[mesh.edges[:, 1]])
    return np.arange(mesh.num_cells)[:, None], x[mesh.cells].mean(axis=1)


def build_space(mesh, fam):
    """Build the dof layout of a family on a mesh: one dof per entity
    that carries a basis function, numbered by entity dimension."""
    ents = fam.entities
    ndofs, cols, coords = 0, {}, []
    for dim in sorted({d for d, _ in ents}):
        ids, x = _entities(mesh, dim)
        cols[dim] = ndofs + ids
        coords.append(x)
        ndofs += len(x)
    dof_map = np.column_stack([cols[d][:, k] for d, k in ents])
    return FeSpace(mesh, fam, dof_map, ndofs, np.vstack(coords))


def dirichlet_dofs(space):
    """Sorted dofs of the boundary vertices and boundary edges; cell dofs
    are interior."""
    m = space.mesh
    on = (
        np.isin(m.cells, m.boundary_nodes),
        m.boundary_edge_mask[m.cell_to_edge],
        np.zeros((m.num_cells, 1), dtype=bool),
    )
    mask = np.column_stack([on[d][:, k] for d, k in space.family.entities])
    return np.unique(space.dof_map[mask])


class DirichletBC:
    """Constrained dof indices and their boundary values."""

    def __init__(self, dofs, values=None):
        self.dofs = np.asarray(dofs, dtype=np.int64)
        if values is None:
            values = np.zeros(self.dofs.shape[0])
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != self.dofs.shape:
            raise ValueError("DirichletBC values must match dofs")


def dirichlet_bc(space, g=None):
    """Boundary condition on the mesh boundary; g=None means homogeneous."""
    dofs = dirichlet_dofs(space)
    if g is None:
        return DirichletBC(dofs)
    x = space.dof_coords[dofs, 0]
    y = space.dof_coords[dofs, 1]
    vals = np.broadcast_to(np.asarray(g(x, y), dtype=float), x.shape).copy()
    return DirichletBC(dofs, vals)


def evaluate(space, coeffs, pts, locator=None, slack=1e-10):
    """Evaluate a finite element function at arbitrary physical points."""
    coeffs = np.asarray(coeffs, dtype=float)
    if locator is None:
        locator = CellLocator(space.mesh)
    cells, refs = locator.locate(pts, slack=slack)
    phi = el.basis_matrix(space.family, refs)
    local = coeffs[space.dof_map[cells]]
    vals = np.sum(phi * local, axis=1)
    return vals


def evaluate_grad(space, coeffs, pts, locator=None, slack=1e-10):
    """Physical gradient of a finite element function at points; (k, 2)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if locator is None:
        locator = CellLocator(space.mesh)
    cells, refs = locator.locate(pts, slack=slack)
    J = np.einsum("kla,klb->kab", locator.quads[cells], el.grad_matrix(el.Q1, refs))
    dphi = el.grad_matrix(space.family, refs).transpose(0, 2, 1)
    gref = np.matmul(dphi, coeffs[space.dof_map[cells]][:, :, None])
    return np.matmul(np.linalg.inv(J).transpose(0, 2, 1), gref)[:, :, 0]
