"""The benchmark's workloads: the entry-point calls they make and the checks
their outputs must pass.

A workload is a list of calls into the public entry points the CLI uses
(``fddlm.runner.run_study`` with ``threads=1`` and
``fddlm.infsup.infsup_sweep``), written as JSON-able dicts so that a fresh
worker process can run them. Only the disk study has a free input that
keeps its purpose, the background/immersed size ratio; the other two
workloads ignore the seed.
"""

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

# Relative tolerance of the seed-0 pinned values (errors, rates, gammas).
# Reordering a floating-point sum changes a solution by about cond(K) * eps;
# the saddle matrices here have cond(K) below 1e8, so a solution moves by
# at most ~1e-8 relative, and an error norm, which is ~1e-3 of the field,
# by at most ~1e-5 of itself in the worst case and ~1e-9 in practice.
# 1e-6 keeps rounding-only changes (vectorized kernels, other summation
# orders) inside the band, while any change of the discretisation moves
# these values by 1e-3 or more.
PINNED_RTOL = 1e-6

# Acceptance invariants, as in the repository's acceptance gate.
MAX_BACKWARD_ERROR = 1e-10
MAX_CONSTRAINT_RES = 1e-9
DISK_RATE_MIN = {"L2_u": 0.85, "H1_u": 0.40, "L2_u2": 0.85}
SELFCONV_L2_RATE_MIN = 0.5
INFSUP_RATIO_MIN = 0.5
INFSUP_SINGULAR_MAX = 1e-6

# Nonzero seeds draw the disk study's h2/h from the upper part of
# [0.85, 1.15], the range around the canonical 1: every ratio there above
# the canonical band gives immersed base 6 instead of 7 (another cut pattern, other
# fragment counts). The lower end [0.85, ~0.895) gives base 8, which costs
# about 60 % more wall time and 90 % more memory than base 6; drawing from
# both sides would make the seed-to-seed spread of the end-to-end metrics
# measure the input size instead of the program, so that side is left out.
DISK_RATIO_RANGE = (1.0, 1.15)


def study(example, case, element, levels, base_cells):
    return {
        "fn": "run_study",
        "example": example,
        "case": case,
        "element": element,
        "levels": levels,
        "base_cells": base_cells,
        "ratio": 1.0,
    }


def sweep(element, base_cells, levels):
    """An inf-sup sweep on the disk (example 3), as criterion 3 runs it."""
    return {
        "fn": "infsup_sweep",
        "example": 3,
        "element": element,
        "base_cells": base_cells,
        "levels": levels,
    }


def disk_ratio(seed, immersed_base_of):
    """h2/h of the disk study for ``seed``.

    Seed 0 is the canonical ratio 1. Any other seed draws from
    DISK_RATIO_RANGE until the immersed base differs from the canonical
    one, so every nonzero seed changes the cut pattern and the fragment
    counts. ``immersed_base_of(ratio)`` is the program's own mapping
    (``problems.immersed_base_for_ratio``).
    """
    if seed == 0:
        return 1.0
    canonical = immersed_base_of(1.0)
    rng = random.Random(seed)
    for _ in range(1000):
        ratio = rng.uniform(*DISK_RATIO_RANGE)
        if immersed_base_of(ratio) != canonical:
            return ratio
    raise RuntimeError("no ratio in range changes the disk immersed base")


class Workload:
    """One named set of entry-point calls and the checks of their outputs."""

    def __init__(self, name, why, seeded, calls, check):
        self.name = name
        self.why = why
        self.seeded = seeded
        self._calls = calls
        self._check = check

    def calls(self, seed, base_of):
        """The entry-point calls for ``seed``; ``base_of(example,
        base_cells, ratio)`` is the immersed base the program picks."""
        return self._calls(seed, base_of)

    def check(self, outputs, calls, seed):
        """Failure messages for one run's outputs (empty when all pass)."""
        fails = check_solves(outputs)
        fails += self._check(outputs, calls)
        if seed == 0 or not self.seeded:
            # a workload that ignores the seed runs seed 0's inputs
            fails += check_pinned(self.name, outputs)
        return fails


# --- checks -----------------------------------------------------------


def check_solves(outputs):
    fails = []
    for out in outputs:
        if out["fn"] != "run_study":
            continue
        be = max(out["residuals"])
        cr = max(out["constraint_res"])
        if not be <= MAX_BACKWARD_ERROR:
            fails.append(f"backward error {be:.3e} > {MAX_BACKWARD_ERROR:.0e}")
        if not cr <= MAX_CONSTRAINT_RES:
            fails.append(f"constraint residual {cr:.3e} > {MAX_CONSTRAINT_RES:.0e}")
    return fails


def check_traced_solves(layers):
    """The same bounds over every solve a traced run saw, the reference
    levels of a self-convergence study too (StudyResult reports only the
    measured levels)."""
    fails = []
    be = layers["system.backward_error_max"]
    cr = layers["system.constraint_res_max"]
    if not be <= MAX_BACKWARD_ERROR:
        fails.append(f"traced backward error {be:.3e} > {MAX_BACKWARD_ERROR:.0e}")
    if not cr <= MAX_CONSTRAINT_RES:
        fails.append(f"traced constraint residual {cr:.3e} > {MAX_CONSTRAINT_RES:.0e}")
    return fails


def _check_disk(outputs, calls):
    (out,), (call,) = outputs, calls
    fails = []
    for col, lo in DISK_RATE_MIN.items():
        r = out["rates"][col]
        if not r >= lo:
            fails.append(f"disk rate {col} = {r:.3f} < {lo}")
    if out["immersed_base"] != call["immersed_base"]:
        fails.append(
            f"immersed base {out['immersed_base']} != expected {call['immersed_base']}"
        )
    return fails


def _check_selfconv(outputs, calls):
    fails = []
    for out in outputs:
        for col in ("L2_u", "L2_u2"):
            r = out["rates"][col]
            if not r >= SELFCONV_L2_RATE_MIN:
                fails.append(f"self-convergence rate {col} = {r:.3f} < 0.5")
    return fails


def _check_infsup(outputs, calls):
    fails = []
    for out in outputs:
        g = out["gamma_est"]
        if out["element"] == "q1q1p0":
            if out["verdict"] != "degenerating" or not g[-1] < INFSUP_SINGULAR_MAX:
                fails.append(f"q1q1p0 not flagged: {out['verdict']}, gamma {g[-1]:.2e}")
        elif out["verdict"] != "stable" or not g[-1] / g[0] >= INFSUP_RATIO_MIN:
            fails.append(
                f"{out['element']} not stable: {out['verdict']}, ratio {g[-1] / g[0]:.3f}"
            )
    return fails


def _close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= PINNED_RTOL * abs(b)
    return a == b


def pinned_view(output):
    """The part of one call's output that seed 0 pins."""
    if output["fn"] == "run_study":
        return {
            "immersed_base": output["immersed_base"],
            "dims": output["dims"],
            "errors": output["errors"],
            "rates": output["rates"],
        }
    view = {
        "element": output["element"],
        "dim_V2h": output["dim_V2h"],
        "dim_Lh": output["dim_Lh"],
        "verdict": output["verdict"],
    }
    if output["element"] != "q1q1p0":
        # the control's gammas are rounding noise around zero; its check is
        # the absolute bound in _check_infsup
        view["gamma_est"] = output["gamma_est"]
    return view


def _flatten(prefix, value):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flatten(f"{prefix}.{k}", value[k])
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(f"{prefix}[{i}]", v)
    else:
        yield prefix, value


def compare_pinned(expected, outputs):
    got = dict(_flatten("", [pinned_view(o) for o in outputs]))
    want = dict(_flatten("", expected))
    fails = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            fails.append(f"pinned key {key} missing")
        elif not _close(got[key], want[key]):
            fails.append(f"pinned {key}: got {got[key]!r}, pinned {want[key]!r}")
    return fails


def load_pinned():
    with open(PINNED_PATH) as f:
        return json.load(f)


def check_pinned(name, outputs):
    pinned = load_pinned()
    if name not in pinned:
        return [f"no pinned values for workload {name}"]
    return compare_pinned(pinned[name], outputs)


# --- the workloads ------------------------------------------------------


def _disk_calls(seed, base_of):
    call = study(3, 1, "elm1", levels=3, base_cells=16)
    call["ratio"] = disk_ratio(seed, lambda r: base_of(3, 16, r))
    call["immersed_base"] = base_of(3, 16, call["ratio"])
    return [call]


def _flower_calls(seed, base_of):
    return [study(4, 1, "elm1", levels=2, base_cells=4)]


def _infsup_calls(seed, base_of):
    return [sweep("elm1", 1, 5), sweep("elm2", 2, 4), sweep("q1q1p0", 1, 5)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "disk_elm1_study",
            "Criterion-1 disk study at 16-64 cells: coupling dominates, and the "
            "solves cross the 5000-dof dense/sparse LU switch; errors use "
            "closed-form fields.",
            True,
            _disk_calls,
            _check_disk,
        ),
        Workload(
            "flower_selfconv",
            "Flower self-convergence study: level k is measured against level "
            "k+2 through FEFieldRef, so the point-location transfer dominates.",
            False,
            _flower_calls,
            _check_selfconv,
        ),
        Workload(
            "infsup_sweep",
            "Criterion-3 inf-sup sweeps (elm1, elm2, q1q1p0 on the disk): the "
            "eigensolve dominates; no clipping, C1 or saddle solve runs.",
            False,
            _infsup_calls,
            _check_infsup,
        ),
    )
}
