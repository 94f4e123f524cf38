"""Solve one interface problem and compare against its exact solution.

The disk benchmark embeds the unit disk (diffusion coefficient beta2)
in the box [-1.4, 1.4]^2 (coefficient beta) with unit load on both
sides. For the coefficient pair (1, 10) the exact solution is radially
symmetric: (4 - r^2)/4 outside the disk and (31 - r^2)/40 inside. The
background field carries the exact Dirichlet data on the box boundary;
the multiplier ties the two fields together across the unfitted
interface. The script solves at one level, reports the error norms and
solver diagnostics, and exports both fields as VTK.
"""

import os

import numpy as np

from fddlm.mesh import build_mesh
from fddlm.problems import CASES, background_spec, exact_solution, immersed_base_for_ratio, immersed_spec
from fddlm.runner import solve_level
from fddlm.system import error_norms
from fddlm.vtk_io import write_vtk

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

example, case, level = 3, 1, 2
beta, beta2 = CASES[case]
exact = exact_solution(example, case)

bg_spec = background_spec(example, base_cells=16)
t = build_mesh(bg_spec, level)
im_base = immersed_base_for_ratio(example, build_mesh(bg_spec, 0).h, 1.0)
t2 = build_mesh(immersed_spec(example, im_base), level)
print(f"background: {t.num_cells} cells (h={t.h:.4f}); "
      f"immersed disk: {t2.num_cells} cells (h2={t2.h:.4f})")

data = solve_level(t, t2, "elm1", beta, beta2, g=exact["u1"])
errs = error_norms(
    data.sol, data.vh, data.v2,
    exact["u"], exact["grad_u"], exact["u2"], exact["grad_u2"],
)
print(f"dofs: background {data.dims['n']}, immersed {data.dims['n2']}, "
      f"multiplier {data.dims['m']}")
print(f"residual {data.sol.residual:.2e}, "
      f"constraint {data.sol.constraint_res:.2e}, multiplier mean {data.lambda_mass:.2e}")
for k, v in errs.items():
    print(f"  {k:6s} = {v:.4e}")

# the multiplier concentrates the flux jump information; its sign
# follows beta2 - beta
lam = data.sol.lam
print(f"lambda range: [{lam.min():.4f}, {lam.max():.4f}]")

write_vtk(os.path.join(OUT, "interface_u.vtk"), t,
          point_data={"u": data.sol.u[: t.num_nodes]})
write_vtk(os.path.join(OUT, "interface_u2.vtk"), t2,
          point_data={"u2": data.sol.u2[: t2.num_nodes]},
          cell_data={"lambda": lam})
print(f"-> {OUT}/interface_u.vtk, {OUT}/interface_u2.vtk")
