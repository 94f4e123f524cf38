"""Tests of the benchmark itself: schema, checks, seeds and a tiny run.

Run from the checkout root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload, study, sweep  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_workload():
    """Every layer at desk-toy size: a disk study, a self-convergence study
    and an inf-sup sweep, with the acceptance invariants only. Marked as
    seeded so that only seed 0 compares pinned values, of which it has
    none unless a test supplies them."""
    return Workload(
        "tiny",
        "tiny smoke configuration",
        True,
        lambda seed, base_of: [
            study(3, 1, "elm1", levels=2, base_cells=4),
            study(4, 1, "elm1", levels=1, base_cells=2),
            sweep("elm1", 1, 2),
        ],
        lambda outputs, calls: [],
    )


def test_benchmark_json_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.E2E_UNITS
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())

    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == spans.LAYER_METRICS
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    mapping = json.loads((BENCH / "layers.json").read_text())["layers"]
    assert set(mapping) == set(layers)

    all_names = [*names, *e2e, *layers]
    assert len(all_names) == len(set(all_names))
    for n in all_names:
        assert NAME.match(n), n
    for unit in [*run.E2E_UNITS.values(), *layers.values()]:
        assert UNIT.match(unit), unit


def test_tiny_run_produces_every_metric(tmp_path):
    w = tiny_workload()
    result, lines = run.measure(w, seed=1, seconds=0, trace=0)
    assert result["correct"], lines
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, lines = run.measure(w, seed=1, seconds=0, trace=1)
    # traced outputs equal the untraced run's to the last bit, or the run fails
    assert result["correct"], lines
    assert result["attempted"] == 2
    got = result["metrics"]
    assert set(got) == set(spans.LAYER_METRICS)
    for key in ("coupling.intersect_s", "system.factor_s", "runner.transfer_s", "infsup.eig_s"):
        assert got[key]["value"] > 0, key
    assert 0 < got["coupling.clip_yield"]["value"] <= 1


def test_wrong_pinned_value_fails_every_run(monkeypatch):
    w = tiny_workload()
    calls = w.calls(0, run.base_of)
    rep = run.spawn({"root": str(ROOT), "calls": calls, "trace": False, "run_id": "t"}, None, 120)
    good = [workloads.pinned_view(o) for o in rep["outputs"]]
    assert workloads.compare_pinned(good, rep["outputs"]) == []

    bad = json.loads(json.dumps(good))
    bad[0]["errors"]["L2_u"][0] *= 1 + 1e-4
    assert workloads.compare_pinned(bad, rep["outputs"])

    monkeypatch.setattr(workloads, "load_pinned", lambda: {w.name: bad})
    result, lines = run.measure(w, seed=0, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("failed_frac" in line and "1 of 1" in line for line in lines)
    assert result["metrics"] == {}  # failed runs are never timed


def test_wrong_pinned_value_fails_a_seedless_workload_at_any_seed(monkeypatch):
    flower = workloads.WORKLOADS["flower_selfconv"]
    bad = workloads.load_pinned()
    bad[flower.name][0]["errors"]["L2_u"][0] *= 1 + 1e-4
    monkeypatch.setattr(workloads, "load_pinned", lambda: bad)
    result, lines = run.measure(flower, seed=1, seconds=0, trace=0)
    assert result["failed"] == result["attempted"] >= 1
    assert any("pinned" in line and "L2_u" in line for line in lines)


def test_traced_solve_gate():
    ok = {"system.backward_error_max": 1e-14, "system.constraint_res_max": 0.0}
    assert workloads.check_traced_solves(ok) == []
    for key, value in (("system.backward_error_max", 2e-10), ("system.constraint_res_max", float("nan"))):
        assert workloads.check_traced_solves(dict(ok, **{key: value}))


def test_nonzero_seed_changes_disk_immersed_base():
    disk = workloads.WORKLOADS["disk_elm1_study"]
    (canonical,) = disk.calls(0, run.base_of)
    assert canonical["ratio"] == 1.0 and canonical["immersed_base"] == 7
    lo, hi = workloads.DISK_RATIO_RANGE
    for seed in (1, 2, 3, 17):
        (call,) = disk.calls(seed, run.base_of)
        assert lo <= call["ratio"] <= hi
        assert call["immersed_base"] == 6
        assert call == disk.calls(seed, run.base_of)[0]


def test_seedless_workloads_ignore_the_seed():
    for name in ("flower_selfconv", "infsup_sweep"):
        w = workloads.WORKLOADS[name]
        assert not w.seeded
        assert w.calls(0, run.base_of) == w.calls(5, run.base_of)


def test_self_time_excludes_children():
    t = spans.Tracer("r")
    with t.span("entry"):
        with t.span("a"):
            with t.span("a"):
                pass
            with t.span("b"):
                pass
    total, own = spans.layer_totals(t.spans)
    s = {x["name"] + str(x["id"]): x["end"] - x["start"] for x in t.spans}
    assert total["a"] == pytest.approx(s["a1"])
    assert own["entry"] == pytest.approx(s["entry0"] - s["a1"])
    assert own["a"] == pytest.approx(s["a1"] - s["b3"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flower_selfconv",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
