"""Experiment orchestration: single solves, refinement studies, rates.

The benchmark drivers tie the pieces together: build the background and
immersed meshes at a level, assemble the coupled system, solve it and
measure errors, either against a closed-form solution (disk benchmark)
or against the level k+2 solution of the same run (self convergence).
Levels of a study are independent; they are solved one after another.
"""

from dataclasses import dataclass, field

import numpy as np

from . import element as el
from . import problems
from .coupling import assemble_C1, assemble_C2, build_intersections
from .mesh import CellLocator, build_mesh, refine_uniform
from .space import build_space, dirichlet_bc, evaluate, evaluate_grad
from .system import (
    BlockSystem,
    assemble_A1,
    assemble_A2,
    assemble_rhs,
    error_norms,
    multiplier_error,
    solve_saddle,
)

__all__ = [
    "ELEMENTS",
    "LevelData",
    "StudyResult",
    "element_families",
    "least_squares_rate",
    "solve_level",
    "study_meshes",
    "run_study",
    "FEFieldRef",
]

# element tag -> (background family, immersed family)
ELEMENTS = {
    "elm1": (el.Q1, el.Q1B),
    "elm2": (el.Q2, el.Q2),
    "q1q1p0": (el.Q1, el.Q1),
}

ERROR_COLUMNS = ("L2_u", "H1_u", "L2_u2", "H1_u2", "lambda_err")


# an error below this fraction of its column's largest is at rounding
# level, and its logarithm says nothing about convergence
_RATE_FLOOR = 1e-8


def least_squares_rate(h, err):
    """Least-squares slope of log(err) against log(h).

    Entries with non-finite error, or error at most ``_RATE_FLOOR`` times
    the largest finite one, are dropped; returns NaN when fewer than two
    points remain.
    """
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    finite = np.isfinite(err)
    top = err[finite].max(initial=0.0)
    ok = finite & (err > _RATE_FLOOR * top) & np.isfinite(h) & (h > 0)
    if ok.sum() < 2:
        return float("nan")
    A = np.column_stack([np.log(h[ok]), np.ones(ok.sum())])
    slope, _ = np.linalg.lstsq(A, np.log(err[ok]), rcond=None)[0]
    return float(slope)


@dataclass
class LevelData:
    """Everything produced by one coupled solve."""

    t: object
    t2: object
    vh: object
    v2: object
    sol: object
    dims: dict
    lambda_mass: float


@dataclass
class StudyResult:
    """Per-level rows and least-squares rates of a refinement study."""

    example: int
    case: int
    element: str
    levels: list = field(default_factory=list)
    h: list = field(default_factory=list)
    h2: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)
    constraint_res: list = field(default_factory=list)
    lambda_mass: list = field(default_factory=list)
    dims: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    immersed_base: int = 0


class FEFieldRef:
    """Adapter presenting a finite element field as vectorized callables.

    Used as the reference in self-convergence studies: the fine solution
    is evaluated at the coarse quadrature points. Points outside the
    fine mesh are clamped into the nearest cell within ``slack``
    reference units; the chord overshoot of a coarse mesh over a concave
    boundary arc can reach about one fine boundary cell, hence the wide
    default. A point in no cell's bounding box searches the cells within
    ``slack`` of it in physical units, which with 1.5 spans the whole
    flower mesh, so such a point runs Newton on every cell; the picks of
    the pinned studies depend on that search, so it stays.
    """

    def __init__(self, space, coeffs, slack=1.5):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.locator = CellLocator(space.mesh)
        self.slack = slack

    def value(self, x, y):
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        v = evaluate(self.space, self.coeffs, pts, self.locator, slack=self.slack)
        return v.reshape(np.shape(x))

    def grad(self, x, y):
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        g = evaluate_grad(self.space, self.coeffs, pts, self.locator, slack=self.slack)
        return g[:, 0].reshape(np.shape(x)), g[:, 1].reshape(np.shape(x))


def element_families(element):
    """(background, immersed) families of an element tag; ValueError if unknown."""
    if element not in ELEMENTS:
        raise ValueError(
            f"unknown element tag {element!r}; valid tags: {sorted(ELEMENTS)}"
        )
    return ELEMENTS[element]


def solve_level(t, t2, element, beta, beta2, g=None):
    """Assemble and solve the coupled system on one mesh pair.

    Parameters
    ----------
    t, t2 : background and immersed meshes.
    element : elm1 | elm2 | q1q1p0.
    beta, beta2 : diffusion coefficients outside/inside.
    g : Dirichlet data on the box boundary (None = homogeneous).

    The loads are f = f2 = 1.
    """
    fam_h, fam_2 = element_families(element)
    vh = build_space(t, fam_h)
    v2 = build_space(t2, fam_2)
    # the blocks go straight into the call, with no name here: CPython
    # moves a call's arguments into the callee's frame, so rebinding the
    # system to its eliminated copy in solve_saddle frees the un-eliminated
    # A1, C1, F1 and G before the factor runs
    sol = solve_saddle(
        BlockSystem(
            assemble_A1(vh, beta),
            assemble_A2(v2, beta, beta2),
            assemble_C1(build_intersections(t2, t), vh),
            assemble_C2(v2),
            *assemble_rhs(vh, v2),
            coords=np.concatenate([vh.dof_coords, v2.dof_coords]),
        ),
        dirichlet_bc(vh, g),
    )
    return LevelData(
        t=t,
        t2=t2,
        vh=vh,
        v2=v2,
        sol=sol,
        dims={"n": vh.ndofs, "n2": v2.ndofs, "m": t2.num_cells},
        lambda_mass=float(np.sum(sol.lam * t2.cell_areas())),
    )


def build_mesh_sequence(spec, levels):
    """Level 0..levels-1 meshes produced by successive refinement."""
    seq = [build_mesh(spec, 0)]
    for _ in range(1, levels):
        seq.append(refine_uniform(seq[-1]))
    return seq


def study_meshes(example, base_cells, ratio, levels):
    """Background and immersed meshes of levels 0..levels-1, and the
    immersed base_cells whose level-0 h2 is closest to ratio * h."""
    bg = build_mesh_sequence(problems.background_spec(example, base_cells), levels)
    im_base = problems.immersed_base_for_ratio(example, bg[0].h, ratio)
    im = build_mesh_sequence(problems.immersed_spec(example, im_base), levels)
    return bg, im, im_base


def run_study(
    example,
    case,
    element,
    levels,
    base_cells=16,
    ratio=1.0,
    threads=1,
):
    """Run a refinement study of one benchmark configuration.

    For the disk benchmark errors are measured against the closed-form
    solution at every level. For the other geometries the study solves
    ``levels + 2`` levels internally and measures level k against level
    k+2 (quadrature-point transfer), reporting rows 0..levels-1. The
    multiplier column always uses the k vs k+2 protocol with nested cell
    averaging, so its last two rows are NaN in the exact-solution case.
    A row measured through the transfer adds ``transfer_unconverged``
    (distinct points whose reference coordinates come from an unconverged
    Newton run) and ``transfer_max_miss`` (worst reference-unit distance
    outside the chosen cell before clamping) to its ``stats``.

    ``threads`` has no effect: levels are solved one after another. It
    survives only because the benchmark's worker (perfbench/worker.py)
    passes it, until the benchmark revision (ROADMAP item 5) drops it.
    """
    beta, beta2 = problems.CASES[case]
    exact = problems.exact_solution(example, case)
    total = levels + (2 if exact is None else 0)
    bg_meshes, im_meshes, im_base = study_meshes(example, base_cells, ratio, total)
    g = exact["u1"] if exact else None

    data = [
        solve_level(bg_meshes[k], im_meshes[k], element, beta, beta2, g=g)
        for k in range(total)
    ]

    res = StudyResult(example=example, case=case, element=element, immersed_base=im_base)
    res.errors = {c: [] for c in ERROR_COLUMNS}
    for k in range(levels):
        d = data[k]
        res.levels.append(k)
        res.h.append(d.t.h)
        res.h2.append(d.t2.h)
        res.residuals.append(d.sol.residual)
        res.constraint_res.append(d.sol.constraint_res)
        res.lambda_mass.append(d.lambda_mass)
        res.dims.append(d.dims)
        stats = dict(d.sol.stats)
        res.stats.append(stats)
        ref = data[k + 2] if k + 2 < total else None
        if exact is not None:
            e = error_norms(
                d.sol, d.vh, d.v2,
                exact["u"], exact["grad_u"], exact["u2"], exact["grad_u2"],
            )
        else:
            uref = FEFieldRef(ref.vh, ref.sol.u)
            u2ref = FEFieldRef(ref.v2, ref.sol.u2)
            e = error_norms(
                d.sol, d.vh, d.v2, uref.value, uref.grad, u2ref.value, u2ref.grad
            )
            locs = (uref.locator, u2ref.locator)
            stats["transfer_unconverged"] = sum(len(loc.unconverged) for loc in locs)
            stats["transfer_max_miss"] = float(np.max([loc.max_miss for loc in locs]))
        for c in ("L2_u", "H1_u", "L2_u2", "H1_u2"):
            res.errors[c].append(e[c])
        if ref is not None:
            lam_err = multiplier_error(d.sol.lam, ref.sol.lam, d.t2, ref.t2)
        else:
            lam_err = float("nan")
        res.errors["lambda_err"].append(lam_err)
    for c in ERROR_COLUMNS:
        res.rates[c] = least_squares_rate(res.h, res.errors[c])
    return res
