"""Exact cross-mesh coupling by Green's-theorem moments of the cut cells.

The multiplier couples fields living on two unrelated meshes, so the
assembly needs integrals of background basis functions over immersed
cells. The background is a uniform axis-aligned grid, so the background
cells an immersed cell may touch follow from its bounding box by index
arithmetic, and in the reference coordinates (xi, eta) of one of them the
cell is the unit square. Every fragment, the immersed cell's part of that
square, gets its moments M[p, q] = integral of xi^p eta^q (p, q <= 2),
exactly, by Green's theorem on the immersed cell's own four edges; the
fragment itself is never built. The Q1 and Q2 bases
are combinations of these monomials, so C1 is one product of the moments
with the basis' monomial coefficients. Two checks make the exactness
visible:

* a hand-computable corner configuration where the coupling entry is
  (3/8)^2 = 0.140625,
* row sums of the coupling matrix, which must reproduce each immersed
  cell's area to machine precision because the background basis sums
  to one; the fragment areas M[0, 0] likewise sum to the mesh area.
"""

import numpy as np

from fddlm.coupling import assemble_C1, build_intersections
from fddlm.element import Q1
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.space import build_space

# one background cell [0.5,1.5]^2, one immersed cell [0.5,1]^2
bg = build_mesh(DomainSpec("rectangle", bounds=(0.5, 1.5, 0.5, 1.5), base_cells=1))
im = build_mesh(DomainSpec("square_patch", bounds=(0.5, 1.0, 0.5, 1.0), base_cells=1))
table = build_intersections(im, bg)
vh = build_space(bg, Q1)
C1 = assemble_C1(table, vh).toarray()

print("corner configuration")
print(f"  fragments: {table.num_fragments} (the immersed cell sits in one "
      "background cell)")
j = int(np.where((vh.dof_coords == [0.5, 0.5]).all(axis=1))[0][0])
print(f"  entry for the node at (0.5, 0.5): {C1[0, j]:.12f} (exact 0.140625)")
print(f"  row sum {C1[0].sum():.12f} = immersed cell area {im.cell_areas()[0]:.12f}")

# a curved immersed mesh overlapping many background cells
bg = build_mesh(DomainSpec("rectangle", bounds=(-1.3, 1.3, -1.3, 1.3), base_cells=8))
im = build_mesh(DomainSpec("disk", base_cells=2), 1)
table = build_intersections(im, bg)
C1 = assemble_C1(table, build_space(bg, Q1))
sums = np.asarray(C1.sum(axis=1)).ravel()
areas = im.cell_areas()
frag_area = table.moments[:, 0, 0].sum()
print("\ndisk inside an unaligned 8x8 background")
print(f"  immersed cells: {im.num_cells}, fragments: {table.num_fragments}")
print(f"  fragment areas M00 sum to the disk mesh area: "
      f"{frag_area:.12f} vs {areas.sum():.12f}")
print(f"  worst |row sum / cell area - 1| = {np.abs(sums / areas - 1).max():.2e}")
