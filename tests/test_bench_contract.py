"""The names of fddlm that the benchmark under perfbench/ reaches.

perfbench/spans.py wraps module attributes by name, and
perfbench/worker.py calls ``run_study(..., threads=1)``. The benchmark's
own tests (perfbench/tests) do not run with this suite, so a pruning of
fddlm that drops one of those names fails here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fddlm.infsup as infsup
import fddlm.problems as problems
import fddlm.runner as runner
import fddlm.system as system

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_attrs():
    mods = (infsup, problems, runner, system, runner.FEFieldRef)
    return [dict(vars(m)) for m in mods]


def tiny_sweep():
    return infsup.infsup_sweep("elm1", problems.immersed_spec(3, 1), 2).gamma_est


def tiny_run():
    res = runner.run_study(4, 1, "elm1", 1, base_cells=2, threads=1)
    return res.errors, tiny_sweep()


def traced(run):
    """The tracer of ``run`` under an installed tracer, and its result."""
    spans = load_spans()
    tracer = spans.Tracer("t")
    restore = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            result = run()
    finally:
        restore()
    return tracer, result


def test_spans_install_restore_and_threads():
    before = module_attrs()
    plain = tiny_run()
    tracer, result = traced(tiny_run)
    spans = tracer.spans
    assert module_attrs() == before
    # a traced run computes the same numbers as an untraced one
    assert plain[1] == result[1]
    for col, vals in plain[0].items():
        assert np.array_equal(vals, result[0][col], equal_nan=True)
    names = {s["name"] for s in spans}
    for name in (
        "mesh.build", "space.build", "coupling.intersect", "coupling.c1",
        "system.assemble", "system.saddle", "system.eliminate", "system.factor",
        "system.errors", "runner.solve_level", "runner.transfer",
        "runner.multiplier_err", "infsup.norms", "infsup.eig",
    ):
        assert name in names


def test_infsup_factor_is_charged_to_infsup():
    # the inf-sup factor goes through fddlm.infsup's own spla, so the
    # benchmark's system layer (factor spans, sparse_solves) stays empty
    # on the inf-sup sweep
    names = [s["name"] for s in traced(tiny_sweep)[0].spans]
    assert names.count("infsup.eig") == 2
    # per level, assemble_C2 and build_norm_matrices are each one span
    assert names.count("infsup.norms") == 4
    assert "system.factor" not in names


def test_dissection_route_is_traced(monkeypatch):
    # with the size limit low every null-space K is ordered by dissection:
    # the tracer's splu wrap still sees each factor, the permuting solve
    # runs through its traced solve, and the fill it reads is the solve's
    monkeypatch.setattr(system, "_ND_MIN_ROWS", 0)
    ordered = []
    order = system.dissection_order

    def counted(*args):
        ordered.append(1)
        return order(*args)

    monkeypatch.setattr(system, "dissection_order", counted)
    tracer, res = traced(lambda: runner.run_study(3, 1, "elm1", 2, base_cells=4))
    assert len(ordered) == 2
    names = [s["name"] for s in tracer.spans]
    assert names.count("system.factor") == 2
    assert names.count("system.solve") == 4
    for name in ("system.saddle", "system.eliminate", "runner.solve_level"):
        assert name in names
    assert tracer.counts["sparse_solves"] == 2
    assert tracer.maxima["lu_fill"] == max(s["lu_fill"] for s in res.stats)
