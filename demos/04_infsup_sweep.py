"""Numerical inf-sup test: why the bubble (or Q2) is needed.

Well-posedness of the saddle problem needs the coupling between the
immersed space and the piecewise-constant multiplier to be uniformly
surjective: the inf-sup constant must stay bounded away from zero as
the mesh refines. The constant is computed per level as the m-th
largest eigenvalue of a generalized eigenproblem built from the
coupling matrix and the multiplier/H1 norm matrices.

Three pairings on the disk geometry:

* elm1: Q1 plus a cell bubble against P0 - stable,
* elm2: Q2 against P0 - stable (started one base level finer, since
  five Q2 cells cannot resolve anything),
* q1q1p0: plain Q1 against P0 - the classical checkerboard failure; on
  these meshes the coupling matrix is exactly rank deficient, so the
  estimates are numerical zeros from the coarsest level onward.
"""

from fddlm.infsup import _SINGULAR_TOL, infsup_sweep
from fddlm.mesh import DomainSpec

for tag, base in (("elm1", 1), ("elm2", 2), ("q1q1p0", 1)):
    rep = infsup_sweep(tag, DomainSpec("disk", base_cells=base), 5)
    print(f"{tag} (disk, base {base}):")
    print("  level      h2   dim_V2h   dim_Lh   gamma_est")
    for i in range(len(rep.levels)):
        print(
            f"  {rep.levels[i]:5d}  {rep.h2[i]:.4f}  {rep.dim_V2h[i]:8d} "
            f"{rep.dim_Lh[i]:8d}   {rep.gamma_est[i]:.6e}"
        )
    g0, g1 = rep.gamma_est[0], rep.gamma_est[-1]
    # q1q1p0's estimates are numerical zeros (rounding noise at or below
    # the singular threshold), so the ratio is undefined there
    ratio = f"{g1 / g0:.3f}" if g0 >= _SINGULAR_TOL else "undefined"
    print(f"  finest/coarsest = {ratio}, verdict: {rep.verdict()}\n")
