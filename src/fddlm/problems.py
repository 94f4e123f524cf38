"""Benchmark catalog: geometries, coefficient cases, exact solutions.

Four geometry pairings (background box, immersed region):

1. box [0, 6]^2 with the square patch [e, 1+pi]^2 (generic, grid-unaligned)
2. box [0, 6]^2 with the L-shaped patch [1, 3]^2 minus [2, 3]^2
3. box [-1.4, 1.4]^2 with the unit disk centered at the origin
4. box [-2, 3]^2 with the flower r(theta) = 1 + 0.1 cos(5 theta)

Coefficient cases (beta, beta2): (1, 10), (1, 10000), (10, 1). Loads
default to f = f2 = 1. The disk pairing has closed-form solutions for
all three cases; U1 does not vanish on the box boundary, so the
benchmark imposes it as Dirichlet data there.
"""

import math

import numpy as np

from .mesh import DomainSpec, build_mesh

__all__ = [
    "CASES",
    "EXAMPLES",
    "background_spec",
    "immersed_spec",
    "exact_solution",
    "immersed_base_for_ratio",
]

CASES = {1: (1.0, 10.0), 2: (1.0, 10000.0), 3: (10.0, 1.0)}

EXAMPLES = {
    1: {
        "background": (0.0, 6.0, 0.0, 6.0),
        "immersed": ("square_patch", (math.e, 1.0 + math.pi, math.e, 1.0 + math.pi)),
    },
    2: {
        "background": (0.0, 6.0, 0.0, 6.0),
        "immersed": ("lshape", (1.0, 3.0, 1.0, 3.0)),
    },
    3: {
        "background": (-1.4, 1.4, -1.4, 1.4),
        "immersed": ("disk", None),
    },
    4: {
        "background": (-2.0, 3.0, -2.0, 3.0),
        "immersed": ("flower", None),
    },
}


def background_spec(example, base_cells=16):
    """Background box spec of a benchmark example."""
    if example not in EXAMPLES:
        raise ValueError(f"unknown example {example}; valid: {sorted(EXAMPLES)}")
    return DomainSpec("rectangle", bounds=EXAMPLES[example]["background"], base_cells=base_cells)


def immersed_spec(example, base_cells):
    """Immersed region spec of a benchmark example."""
    if example not in EXAMPLES:
        raise ValueError(f"unknown example {example}; valid: {sorted(EXAMPLES)}")
    kind, bounds = EXAMPLES[example]["immersed"]
    if kind == "square_patch":
        return DomainSpec(kind, bounds=bounds, base_cells=base_cells)
    if kind == "lshape":
        n = int(base_cells)
        n += n % 2  # lshape needs an even cell count
        return DomainSpec(kind, bounds=bounds, base_cells=n)
    if kind == "disk":
        return DomainSpec(kind, center=(0.0, 0.0), radius=1.0, base_cells=base_cells)
    return DomainSpec(
        kind, center=(0.0, 0.0), radius=1.0, amplitude=0.1, lobes=5, base_cells=base_cells
    )


# Disk benchmark: U1 = (4 - r^2)/d1 outside the unit circle and
# U2 = (a2 - b2 r^2)/d2 inside satisfy -div(beta grad u) = 1 on both
# sides, continuity and flux balance beta1 dU1/dn1 = -beta2 dU2/dn2 on
# the circle.
_CIRCLE = {
    1: {"d1": 4.0, "a2": 31.0, "b2": 1.0, "d2": 40.0},
    2: {"d1": 4.0, "a2": 30001.0, "b2": 1.0, "d2": 40000.0},
    3: {"d1": 40.0, "a2": 13.0, "b2": 10.0, "d2": 40.0},
}


def exact_solution(example, case):
    """Exact fields of a benchmark, or None when not available.

    Returns a dict with vectorized callables: u / grad_u (piecewise over
    the circle), u2 / grad_u2 (the inside field), u1 (the outside field,
    also the boundary data on the box).
    """
    if case not in _CIRCLE:
        raise ValueError(f"unknown case {case}; valid: {sorted(_CIRCLE)}")
    if example != 3:
        return None
    p = _CIRCLE[case]
    d1, a2, b2, d2 = p["d1"], p["a2"], p["b2"], p["d2"]

    def u1(x, y):
        return (4.0 - x * x - y * y) / d1

    def grad_u1(x, y):
        return -2.0 * x / d1, -2.0 * y / d1

    def u2(x, y):
        return (a2 - b2 * (x * x + y * y)) / d2

    def grad_u2(x, y):
        return -2.0 * b2 * x / d2, -2.0 * b2 * y / d2

    def u(x, y):
        inside = x * x + y * y <= 1.0
        return np.where(inside, u2(x, y), u1(x, y))

    def grad_u(x, y):
        inside = x * x + y * y <= 1.0
        g1x, g1y = grad_u1(x, y)
        g2x, g2y = grad_u2(x, y)
        return np.where(inside, g2x, g1x), np.where(inside, g2y, g1y)

    return {"u": u, "grad_u": grad_u, "u2": u2, "grad_u2": grad_u2, "u1": u1}


# largest immersed level-0 resolution the ratio search tries
_MAX_BASE = 96


def immersed_base_for_ratio(example, h_background, ratio):
    """Pick the immersed level-0 resolution hitting a target h2/h ratio.

    Builds candidate level-0 meshes and returns the base_cells value
    whose h2 is closest to ratio * h_background (the smallest such value
    on a tie). h2 decreases strictly with base_cells in every example, so
    the distance falls to the crossing and rises after it: the search
    stops at the first candidate farther off than the best one. Both
    meshes refine by halving, so the ratio is level-independent.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    kind = EXAMPLES[example]["immersed"][0]
    step = 2 if kind == "lshape" else 1
    target = ratio * h_background
    best = (math.inf, None)
    for n in range(step, _MAX_BASE + 1, step):
        err = abs(build_mesh(immersed_spec(example, n), 0).h - target)
        if err > best[0]:
            break
        if err < best[0]:
            best = (err, n)
    return best[1]
