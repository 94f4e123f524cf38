"""One measured run of a workload, in a fresh process.

Usage (from run.py): python3 worker.py <job-json>

The job holds the checkout root, the entry-point calls, the run id, the
trace and set-up-only flags and the CLOCK_MONOTONIC time at which the
parent spawned this process. The worker imports fddlm from the checkout's
``src``, builds the workload's mesh hierarchy (set-up), runs the calls
unless the job is set-up only, and prints one JSON line: timings, BLAS
threads, peak RSS, the outputs the parent checks and, when traced, the
spans and per-layer metrics.
"""

import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_fddlm(root):
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import fddlm
    import fddlm.infsup
    import fddlm.problems
    import fddlm.runner

    where = Path(fddlm.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"fddlm imported from {where}, not from {src}")
    return fddlm


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _setup(fddlm, call):
    """The call's mesh hierarchy, built as the entry point builds it."""
    problems, runner = fddlm.problems, fddlm.runner
    ex = call["example"]
    if call["fn"] == "run_study":
        extra = 2 if problems.exact_solution(ex, call["case"]) is None else 0
        total = call["levels"] + extra
        bg = runner.build_mesh_sequence(problems.background_spec(ex, call["base_cells"]), total)
        base = problems.immersed_base_for_ratio(ex, bg[0].h, call["ratio"])
        return bg + runner.build_mesh_sequence(problems.immersed_spec(ex, base), total)
    spec = problems.immersed_spec(ex, call["base_cells"])
    return fddlm.runner.build_mesh_sequence(spec, call["levels"])


def _run(fddlm, call):
    """One entry-point call as the CLI makes it; returns its outputs."""
    if call["fn"] == "run_study":
        res = fddlm.runner.run_study(
            call["example"],
            call["case"],
            call["element"],
            call["levels"],
            base_cells=call["base_cells"],
            ratio=call["ratio"],
            threads=1,
        )
        return {
            "fn": "run_study",
            "immersed_base": res.immersed_base,
            "levels": res.levels,
            "h": res.h,
            "h2": res.h2,
            "dims": res.dims,
            "errors": res.errors,
            "rates": res.rates,
            "residuals": res.residuals,
            "constraint_res": res.constraint_res,
            "lambda_mass": res.lambda_mass,
        }
    spec = fddlm.problems.immersed_spec(call["example"], call["base_cells"])
    rep = fddlm.infsup.infsup_sweep(call["element"], spec, call["levels"])
    return {
        "fn": "infsup_sweep",
        "element": rep.element,
        "levels": rep.levels,
        "h2": rep.h2,
        "dim_V2h": rep.dim_V2h,
        "dim_Lh": rep.dim_Lh,
        "sigma_min": rep.sigma_min,
        "gamma_est": rep.gamma_est,
        "verdict": rep.verdict(),
    }


def main(job):
    fddlm = _import_fddlm(job["root"])
    from fddlm.coupling import CoverageError
    from fddlm.system import SolverError

    for call in job["calls"]:
        _setup(fddlm, call)
    setup_s = time.monotonic() - job["spawned"]
    if job.get("setup_only"):
        return {"setup_s": setup_s, "blas_threads": _blas_threads()}

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer(job["run_id"])
        spans.install(tracer)

    result = {"setup_s": setup_s, "outputs": [], "error": None}
    wall = 0.0
    try:
        for call in job["calls"]:
            t0 = time.perf_counter()
            if tracer is None:
                out = _run(fddlm, call)
            else:
                with tracer.span(spans.ROOT):
                    out = _run(fddlm, call)
            wall += time.perf_counter() - t0
            result["outputs"].append(out)
    except (SolverError, CoverageError, ValueError) as exc:
        wall += time.perf_counter() - t0
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        pairs = sum(spans.bbox_overlap_pairs(t2, t) for t2, t in tracer.pairs)
        result["layers"], result["self_s"] = spans.layer_metrics(tracer, pairs)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    try:
        payload = main(json.loads(sys.argv[1]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    print(json.dumps(payload))
