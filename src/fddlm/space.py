"""Finite element spaces on quad meshes: dof maps, boundary dofs, evaluation.

Global dof ordering: nodal dofs first (mesh node order), then edge dofs
(lexicographic sorted-node-pair order), then cell dofs (cell order). For
q1/q1b/q2 the dof index of a mesh node equals the node index.
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
        midpoints for edge dofs, the bilinear image of (0.5, 0.5) for q2
        cell dofs, cell centers for bubbles, area centroids for p0.
    """

    def __init__(self, mesh, fam, dof_map, ndofs, dof_coords):
        self.mesh = mesh
        self.family = fam
        self.dof_map = dof_map
        self.ndofs = ndofs
        self.dof_coords = dof_coords

    def __repr__(self):
        return f"FeSpace({self.family.tag}, ndofs={self.ndofs}, cells={self.mesh.num_cells})"


def build_space(mesh, fam):
    """Build the dof layout of a family on a mesh."""
    nn = mesh.num_nodes
    mc = mesh.num_cells
    cell_centers = mesh.nodes[mesh.cells].mean(axis=1)
    if fam.tag == "q1":
        return FeSpace(mesh, fam, mesh.cells.copy(), nn, mesh.nodes.copy())
    if fam.tag == "q1b":
        dof_map = np.hstack([mesh.cells, (nn + np.arange(mc))[:, None]])
        coords = np.vstack([mesh.nodes, cell_centers])
        return FeSpace(mesh, fam, dof_map, nn + mc, coords)
    if fam.tag == "q2":
        ne = mesh.num_edges
        dof_map = np.hstack(
            [mesh.cells, nn + mesh.cell_to_edge, (nn + ne + np.arange(mc))[:, None]]
        )
        mids = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
        coords = np.vstack([mesh.nodes, mids, cell_centers])
        return FeSpace(mesh, fam, dof_map, nn + ne + mc, coords)
    if fam.tag == "p0":
        # shoelace area centroids
        p = mesh.nodes[mesh.cells]
        pn = np.roll(p, -1, axis=1)
        cross = p[:, :, 0] * pn[:, :, 1] - pn[:, :, 0] * p[:, :, 1]
        cents = np.einsum("mka,mk->ma", p + pn, cross) / (3.0 * cross.sum(axis=1))[:, None]
        return FeSpace(mesh, fam, np.arange(mc, dtype=np.int64)[:, None], mc, cents)
    raise ValueError(f"unhandled family {fam.tag}")


def dirichlet_dofs(space):
    """Dofs induced by the mesh boundary: boundary-node dofs plus, for q2,
    the dofs of boundary edges. Bubble and cell dofs are interior."""
    m = space.mesh
    dofs = [m.boundary_nodes]
    if space.family.tag == "q2":
        dofs.append(m.num_nodes + np.nonzero(m.boundary_edge_mask)[0])
    return np.sort(np.concatenate(dofs)).astype(np.int64)


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
