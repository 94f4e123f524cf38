"""Spans around the calls into each fddlm module, recorded from outside.

``install`` replaces the functions the entry points call, at the names
they call them through (``fddlm.runner.build_intersections``,
``fddlm.system.full_matrix``, ...), by wrappers that record a span per
call: name, start, end, parent span and run id. Spans stay in memory; the
worker returns them when its run ends. No file of the program changes, and
the wrapped functions receive the same arguments and return the same
objects, so a traced run computes the same numbers as an untraced one.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "entry"

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = {
    "mesh.build_s": "s",
    "mesh.cells_bg": "count",
    "mesh.cells_im": "count",
    "space.build_s": "s",
    "coupling.intersect_s": "s",
    "coupling.c1_s": "s",
    "coupling.fragments": "count",
    "coupling.fragments_per_s": "1/s",
    "coupling.clip_yield": "ratio",
    "system.assemble_s": "s",
    "system.eliminate_s": "s",
    "system.factor_s": "s",
    "system.lu_fill": "count",
    "system.dense_solves": "count",
    "system.sparse_solves": "count",
    "system.solve_s": "s",
    "system.saddle_s": "s",
    "system.saddle_self_s": "s",
    "system.unknowns": "count",
    "system.nnz_K": "count",
    "system.backward_error_max": "ratio",
    "system.constraint_res_max": "ratio",
    "system.errors_s": "s",
    "runner.solve_level_s": "s",
    "runner.solve_level_self_s": "s",
    "runner.transfer_s": "s",
    "runner.transfer_points": "count",
    "runner.transfer_points_per_s": "1/s",
    "runner.multiplier_err_s": "s",
    "infsup.norms_s": "s",
    "infsup.eig_s": "s",
    "infsup.eig_max_s": "s",
    "infsup.eig_calls": "count",
    "infsup.dim_V2h_max": "count",
    "infsup.dim_Lh_max": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

# layer time metric -> span name whose outermost total it reports
_LAYER_TIMES = {
    "mesh.build_s": "mesh.build",
    "space.build_s": "space.build",
    "coupling.intersect_s": "coupling.intersect",
    "coupling.c1_s": "coupling.c1",
    "system.assemble_s": "system.assemble",
    "system.eliminate_s": "system.eliminate",
    "system.factor_s": "system.factor",
    "system.solve_s": "system.solve",
    "system.saddle_s": "system.saddle",
    "runner.solve_level_s": "runner.solve_level",
    "runner.transfer_s": "runner.transfer",
    "runner.multiplier_err_s": "runner.multiplier_err",
    "infsup.norms_s": "infsup.norms",
    "infsup.eig_s": "infsup.eig",
}


class Tracer:
    """In-memory span recorder for one run of one worker process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.pairs = []  # (immersed, background) mesh pairs that were clipped
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, note=None):
        """``fn`` inside a span; ``note(result, args)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                note(result, args)
            return result

        return traced

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))


class _Namespace:
    """Stands in for a module attribute (``fddlm.system.spla``) so that one
    of its functions can be wrapped without patching the module itself."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedFactor:
    """SuperLU result whose ``solve`` runs inside a span."""

    def __init__(self, fact, tracer):
        self._fact = fact
        self.solve = tracer.wrap(fact.solve, "system.solve")

    def __getattr__(self, name):
        return getattr(self._fact, name)


def install(tracer):
    """Wrap the functions the entry points reach; returns an undo callable."""
    import fddlm.infsup as infsup
    import fddlm.problems as problems
    import fddlm.runner as runner
    import fddlm.system as system

    t = tracer
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(owner, attr, name, note=None):
        patch(owner, attr, t.wrap(getattr(owner, attr), name, note))

    def note_mesh(mesh, args):
        kind = "cells_bg" if mesh.spec is not None and mesh.spec.kind == "rectangle" else "cells_im"
        t.peak(kind, mesh.num_cells)

    def note_table(table, args):
        t.counts["fragments"] += table.num_fragments
        t.pairs.append((table.t2, table.t))

    def note_matrix(K, args):
        t.peak("unknowns", K.shape[0])
        t.peak("nnz_K", K.nnz)

    def note_saddle(sol, args):
        t.peak("backward_error", sol.residual)
        t.peak("constraint_res", sol.constraint_res)

    def note_dense(lu, args):
        t.counts["dense_solves"] += 1
        t.peak("lu_fill", lu[0].size)

    def note_points(result, args):
        x = args[1]
        t.counts["transfer_points"] += getattr(x, "size", 1)

    def note_eig(result, args):
        C2 = args[0]
        t.counts["eig_calls"] += 1
        t.peak("dim_Lh", C2.shape[0])
        t.peak("dim_V2h", C2.shape[1])

    # mesh hierarchy: run_study via build_mesh_sequence and the immersed
    # base search, infsup_sweep directly
    for mod in (runner, infsup):
        wrap(mod, "build_mesh", "mesh.build", note_mesh)
        wrap(mod, "refine_uniform", "mesh.build", note_mesh)
        wrap(mod, "build_space", "space.build")
    wrap(problems, "build_mesh", "mesh.build")

    wrap(runner, "solve_level", "runner.solve_level")
    wrap(runner, "build_intersections", "coupling.intersect", note_table)
    wrap(runner, "assemble_C1", "coupling.c1")
    for attr in ("assemble_C2", "assemble_A1", "assemble_A2", "assemble_rhs", "dirichlet_bc"):
        wrap(runner, attr, "system.assemble")
    wrap(runner, "solve_saddle", "system.saddle", note_saddle)
    wrap(runner, "error_norms", "system.errors")
    wrap(runner, "multiplier_error", "runner.multiplier_err")
    for attr in ("__init__", "value", "grad"):
        note = note_points if attr != "__init__" else None
        wrap(runner.FEFieldRef, attr, "runner.transfer", note)

    # inside solve_saddle
    wrap(system, "apply_dirichlet", "system.eliminate")
    wrap(system, "full_matrix", "system.eliminate", note_matrix)
    wrap(system, "lu_factor", "system.factor", note_dense)
    wrap(system, "lu_solve", "system.solve")
    splu = t.wrap(system.spla.splu, "system.factor")

    def traced_splu(*args, **kwargs):
        fact = splu(*args, **kwargs)
        t.counts["sparse_solves"] += 1
        t.peak("lu_fill", fact.L.nnz + fact.U.nnz)
        return _TracedFactor(fact, t)

    patch(system, "spla", _Namespace(system.spla, splu=traced_splu))

    # inf-sup pipeline
    wrap(infsup, "assemble_C2", "infsup.norms")
    wrap(infsup, "build_norm_matrices", "infsup.norms")
    wrap(infsup, "infsup_constant", "infsup.eig", note_eig)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def bbox_overlap_pairs(t2, t):
    """Number of (immersed, background) cell pairs whose bounding boxes
    overlap with positive area: the clipping attempts a bounding-box search
    cannot avoid."""
    import numpy as np

    def boxes(mesh):
        p = mesh.nodes[mesh.cells]
        return p.min(axis=1), p.max(axis=1)

    lo2, hi2 = boxes(t2)
    lo, hi = boxes(t)
    chunk = 256  # immersed cells per block, to bound the pair array
    total = 0
    for i in range(0, lo2.shape[0], chunk):
        a, b = lo2[i : i + chunk, None, :], hi2[i : i + chunk, None, :]
        hit = (a < hi[None]) & (lo[None] < b)
        total += int(np.count_nonzero(hit.all(axis=2)))
    return total


def self_times(spans):
    """Span duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(spans):
    """Per span name: total of its outermost spans, and total self time."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    total = defaultdict(float)
    self_t = defaultdict(float)
    for s in spans:
        self_t[s["name"]] += own[s["id"]]
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            total[s["name"]] += s["end"] - s["start"]
    return total, self_t


def layer_metrics(tracer, clip_pairs):
    """Per-layer metrics of one traced run, except trace.overhead_s, which
    needs the untraced runs."""
    total, self_t = layer_totals(tracer.spans)
    m = {key: total[name] for key, name in _LAYER_TIMES.items()}
    c, mx = tracer.counts, tracer.maxima
    m["mesh.cells_bg"] = mx["cells_bg"]
    m["mesh.cells_im"] = mx["cells_im"]
    m["coupling.fragments"] = c["fragments"]
    m["coupling.fragments_per_s"] = _ratio(c["fragments"], m["coupling.intersect_s"])
    m["coupling.clip_yield"] = _ratio(c["fragments"], clip_pairs)
    m["system.lu_fill"] = mx["lu_fill"]
    m["system.dense_solves"] = c["dense_solves"]
    m["system.sparse_solves"] = c["sparse_solves"]
    m["system.saddle_self_s"] = self_t["system.saddle"]
    m["system.unknowns"] = mx["unknowns"]
    m["system.nnz_K"] = mx["nnz_K"]
    m["system.backward_error_max"] = mx["backward_error"]
    m["system.constraint_res_max"] = mx["constraint_res"]
    # error_norms minus the FEFieldRef transfer it calls into
    m["system.errors_s"] = self_t["system.errors"]
    m["runner.solve_level_self_s"] = self_t["runner.solve_level"]
    m["runner.transfer_points"] = c["transfer_points"]
    m["runner.transfer_points_per_s"] = _ratio(c["transfer_points"], m["runner.transfer_s"])
    eig = [s["end"] - s["start"] for s in tracer.spans if s["name"] == "infsup.eig"]
    m["infsup.eig_max_s"] = max(eig, default=0.0)
    m["infsup.eig_calls"] = c["eig_calls"]
    m["infsup.dim_V2h_max"] = mx["dim_V2h"]
    m["infsup.dim_Lh_max"] = mx["dim_Lh"]
    m["trace.uncovered_s"] = self_t[ROOT]
    return m, dict(self_t)


def _ratio(num, den):
    return num / den if den > 0 else 0.0
