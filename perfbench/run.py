"""fddlm benchmark: fixed study workloads through the CLI's entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload disk_elm1_study --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each run of a workload is a fresh worker process (worker.py) that imports
fddlm from ``src``, builds the mesh hierarchy, calls ``run_study`` or
``infsup_sweep`` and reports its outputs. Runs repeat, one after another,
until ``--seconds`` have passed. Every run's outputs are checked (acceptance
invariants on every seed, pinned values on seed 0 and on the workloads that
ignore the seed, identical outputs across runs); a run that raised or
failed a check counts as failed and is left out of the timings.

With ``--trace 0`` the end-to-end metrics are the medians over the passing
runs: wall_s (the entry-point calls), setup_s (process start to import done
plus mesh hierarchy built) and peak_rss_mb. With ``--trace 1`` runs
alternate untraced and traced; the traced ones wrap each fddlm module's
functions from outside (spans.py) and give the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results, the environment record and the spans
are written to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, check_traced_solves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# One workload's measurement must end within this many seconds; a run is not
# started when the slowest run so far would not fit before it.
HARD_LIMIT_S = 170.0

# Workers run BLAS on one thread, as run_study runs its levels with
# threads=1. On a 2-core machine a second OpenBLAS thread spins on the other
# core: the disk study's wall time then spread over 20 % from run to run,
# against 3 % on one thread.
BLAS_THREADS = 1

# Set-up-only workers started before the timed runs. setup_s is the median
# over them and the timed runs, so that a workload with few, long runs
# still has several set-up samples.
SETUP_RUNS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def checkout_src():
    src = ROOT / "src"
    if not (src / "fddlm" / "__init__.py").is_file():
        raise BenchError(f"no fddlm sources under {src}")
    return src


def base_of(example, base_cells, ratio):
    """The immersed base run_study picks, from the program's own mapping."""
    sys.path.insert(0, str(checkout_src()))
    from fddlm import problems
    from fddlm.mesh import build_mesh

    h = build_mesh(problems.background_spec(example, base_cells), 0).h
    return problems.immersed_base_for_ratio(example, h, ratio)


# --- environment record -------------------------------------------------


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": None,  # as a worker reports it
        "run_study_threads": 1,
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def child_env():
    """Worker environment: BLAS on BLAS_THREADS threads."""
    out = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        out[var] = str(BLAS_THREADS)
    return out


# --- runs -----------------------------------------------------------------


def spawn(job, env, timeout):
    """One worker run; returns its report, or {"crash": reason}."""
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    return json.loads(lines[-1])


def canonical(outputs):
    return json.dumps(outputs, sort_keys=True)


def run_workload(workload, calls, seed, seconds, trace, run_env, deadline):
    """SETUP_RUNS set-up-only workers, then fresh-process runs for about
    ``seconds``; returns (set-up-only reports, checked run reports).

    A run starts while a typical run would still end within ``seconds``, so
    that an invocation takes about ``seconds`` plus set-up and never much
    more. At least one run, or one untraced + traced pair, always happens,
    and no run starts unless the slowest so far would still end before
    ``deadline``.
    """

    def job(i, **extra):
        run_id = f"{workload.name}-s{seed}-r{i}"
        return {"root": str(ROOT), "calls": calls, "run_id": run_id, **extra}

    setups = []
    for i in range(SETUP_RUNS):
        rep = spawn(job(i, trace=False, setup_only=True), run_env, max(deadline - time.monotonic(), 1.0))
        setups.append(rep)
        if "crash" in rep:
            return setups, [dict(rep, traced=False, fails=[f"set-up crashed: {rep['crash']}"])]

    reps = []
    took = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        rep = spawn(job(SETUP_RUNS + len(reps), trace=traced), run_env, max(deadline - t0, 1.0))
        rep["traced"] = traced
        reps.append(rep)
        now = time.monotonic()
        took.append(now - t0)
        if "crash" in rep or now + max(took) > deadline:
            break
        if trace and len(reps) % 2 == 1:
            continue  # finish the pair
        block = statistics.median(took) * (2 if trace else 1)
        if now - start + block > seconds:
            break
    judge(workload, calls, seed, reps)
    return setups, reps


def judge(workload, calls, seed, reps):
    """Mark each run failed or passed; a run's failures are listed."""
    reference = None
    for rep in reps:
        if "crash" in rep:
            rep["fails"] = [f"worker crashed: {rep['crash']}"]
            continue
        if rep["error"] is not None:
            rep["fails"] = [f"raised {rep['error']}"]
            continue
        rep["fails"] = workload.check(rep["outputs"], calls, seed)
        if rep["traced"]:
            rep["fails"] += check_traced_solves(rep["layers"])
        text = canonical(rep["outputs"])
        if reference is None:
            reference = text
        elif text != reference:
            kind = "traced" if rep["traced"] else "repeated"
            rep["fails"].append(f"{kind} run's outputs differ from the first run's")


def _median(values):
    return statistics.median(values) if values else float("nan")


def high_percentile(values):
    """(p, value): the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def summarize(setups, reps, trace):
    """Metrics over the passing runs (NaN when none passed); setup_s also
    over the set-up-only runs when any run passed."""
    good = [r for r in reps if not r["fails"]]
    plain = [r for r in good if not r["traced"]]
    samples = {}
    if not trace:
        for key in E2E_UNITS:
            samples[key] = [r[key] for r in plain]
        if good:
            samples["setup_s"] += [r["setup_s"] for r in setups if "setup_s" in r]
        return samples, {k: (_median(v), E2E_UNITS[k]) for k, v in samples.items()}
    traced = [r for r in good if r["traced"]]
    traced_wall = _median([r["wall_s"] for r in traced])
    metrics = {}
    for key, unit in spans.LAYER_METRICS.items():
        if key == "trace.overhead_s":
            vals = [traced_wall - _median([r["wall_s"] for r in plain])]
        else:
            vals = [r["layers"][key] for r in traced]
        samples[key] = vals
        metrics[key] = (_median(vals), unit)
    return samples, metrics


# stage -> layer times whose sum is its share of the traced wall_s
SHARES = {
    "coupling": ("coupling.intersect_s", "coupling.c1_s"),
    "saddle solve": ("system.saddle_s",),
    "transfer": ("runner.transfer_s",),
    "eigensolve": ("infsup.eig_s",),
}


def shares(reps, metrics):
    wall = _median([r["wall_s"] for r in reps if r["traced"] and not r["fails"]])
    return {
        stage: sum(metrics[k][0] for k in keys) / wall for stage, keys in SHARES.items()
    }


def report_lines(workload, seed, trace, reps, samples, metrics, env):
    failed = sum(1 for r in reps if r["fails"])
    seed_note = "" if workload.seeded else " (this workload ignores the seed)"
    lines = [
        f"{workload.name}: seed {seed}{seed_note}, trace {trace}, "
        f"{len(reps)} runs, {failed} failed; nproc {env['nproc']}, "
        f"BLAS threads {env['blas_threads']}, load {env['loadavg_at_start'][0]:.2f}"
    ]
    for key, (value, unit) in metrics.items():
        vals = samples[key]
        line = f"  {key:<30} {value:>14.6g} {unit:<6} median of {len(vals)}"
        if len(vals) > 1:
            line += f", range {min(vals):.6g} .. {max(vals):.6g}"
        hp = high_percentile(vals)
        line += f", p{hp[0]:.0f} {hp[1]:.6g}" if hp else ", no percentile with 10 samples beyond it"
        lines.append(line)
    if trace:
        parts = ", ".join(f"{k} {v:.0%}" for k, v in shares(reps, metrics).items())
        lines.append(f"  share of traced wall_s: {parts}")
    lines.append(
        f"  {'failed_frac':<30} {failed / len(reps):>14.6g} {'ratio':<6} "
        f"{failed} of {len(reps)} runs"
    )
    for i, rep in enumerate(reps):
        for msg in rep["fails"]:
            lines.append(f"  run {i} failed: {msg}")
    return lines


def measure(workload, seed, seconds, trace):
    """Run, check and summarize one workload; returns (result, lines)."""
    deadline = time.monotonic() + HARD_LIMIT_S
    checkout_src()
    env = environment(seed)
    calls = workload.calls(seed, base_of)
    setups, reps = run_workload(workload, calls, seed, seconds, trace, child_env(), deadline)
    env["blas_threads"] = setups[0].get("blas_threads")
    samples, metrics = summarize(setups, reps, trace)
    failed = sum(1 for r in reps if r["fails"])
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if math.isfinite(v)
        },
    }
    lines = report_lines(workload, seed, trace, reps, samples, metrics, env)
    save(workload, seed, trace, calls, reps, samples, result, env)
    return result, lines


def save(workload, seed, trace, calls, reps, samples, result, env):
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    runs = [
        {k: v for k, v in r.items() if k not in ("spans", "outputs")} for r in reps
    ]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed_used": workload.seeded,
        "calls": calls,
        "env": env,
        "samples": samples,
        "result": result,
        "runs": runs,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        all_spans = [s for r in reps for s in r.get("spans", [])]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(all_spans) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, lines = measure(WORKLOADS[name], args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            if len(names) == 1:
                combined = result
                break
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, val in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = val
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
