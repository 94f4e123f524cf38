"""Command line front end and VTK export."""

import json

import numpy as np
import pytest

from fddlm.cli import _FMT, ConfigError, RunConfig, load_config, main
from fddlm.mesh import DomainSpec, build_mesh
from fddlm.vtk_io import write_vtk


def write_cfg(tmp_path, name="cfg.json", **kw):
    p = tmp_path / name
    p.write_text(json.dumps(kw))
    return str(p)


def parse_vtk(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII" and lines[3] == "DATASET UNSTRUCTURED_GRID"
    out = {"npoints": 0, "ncells": 0, "point_data": {}, "cell_data": {}}
    i = 4
    while i < len(lines):
        tok = lines[i].split()
        if tok and tok[0] == "POINTS":
            out["npoints"] = int(tok[1])
            pts = [lines[i + 1 + k].split() for k in range(out["npoints"])]
            out["points"] = np.array(pts, dtype=float)
            i += 1 + out["npoints"]
        elif tok and tok[0] == "CELLS":
            out["ncells"] = int(tok[1])
            cells = [lines[i + 1 + k].split() for k in range(out["ncells"])]
            out["cells"] = np.array(cells, dtype=int)
            i += 1 + out["ncells"]
        elif tok and tok[0] == "CELL_TYPES":
            types = [int(lines[i + 1 + k]) for k in range(int(tok[1]))]
            out["cell_types"] = types
            i += 1 + int(tok[1])
        elif tok and tok[0] == "SCALARS":
            count = out["npoints"] if out.get("_section") == "point" else out["ncells"]
            vals = np.array(lines[i + 2 : i + 2 + count], dtype=float)
            out[out["_section"] + "_data"][tok[1]] = vals
            i += 2 + count
        elif tok and tok[0] == "POINT_DATA":
            out["_section"] = "point"
            i += 1
        elif tok and tok[0] == "CELL_DATA":
            out["_section"] = "cell"
            i += 1
        else:
            i += 1
    return out


def test_load_config_defaults_file_overrides(tmp_path):
    cfg = load_config()
    assert cfg == RunConfig()
    # a float field takes a JSON integer
    path = write_cfg(tmp_path, example=1, levels=3, element="elm2", ratio=2)
    cfg = load_config(path, {"output_dir": "res", "example": None})
    assert cfg.example == 1 and cfg.levels == 3 and cfg.element == "elm2"
    assert cfg.ratio == 2
    assert cfg.output_dir == "res"


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="valid keys"):
        load_config(write_cfg(tmp_path, "a.json", exmample=1))
    with pytest.raises(ConfigError, match="valid tags"):
        load_config(write_cfg(tmp_path, "b.json", element="p2"))
    for bad in (
        {"levels": 0},
        {"ratio": -1.0},
        {"base_cells": 1},
        {"infsup_base": -1},
        {"example": 7},
        {"case": 5},
    ):
        name = "c_" + next(iter(bad)) + ".json"
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, name, **bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(arr))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "bad",
    [
        {"levels": "4"},
        {"levels": 3.5},
        {"base_cells": True},
        {"ratio": "1.0"},
        {"element": 2},
    ],
    ids=["int_gets_str", "int_gets_float", "int_gets_bool", "float_gets_str", "str_gets_int"],
)
def test_config_type_validation(tmp_path, bad):
    with pytest.raises(ConfigError, match="must be of type"):
        load_config(write_cfg(tmp_path, **bad))


def test_main_bad_config_exit_code(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_mesh_export(tmp_path):
    cfg = write_cfg(tmp_path, example=1, levels=2, base_cells=4)
    out = tmp_path / "meshes"
    assert main(["mesh-export", "--config", cfg, "--output", str(out)]) == 0
    for tag, lvl, nn, nc in (
        ("background", 0, 25, 16),
        ("background", 1, 81, 64),
        ("immersed", 0, 4, 1),
        ("immersed", 1, 9, 4),
    ):
        v = parse_vtk(out / f"{tag}_level{lvl}.vtk")
        assert v["npoints"] == nn and v["ncells"] == nc
        assert all(t == 9 for t in v["cell_types"])
        assert np.all(v["cells"][:, 0] == 4)
        assert np.all(v["points"][:, 2] == 0.0)
    # an identical rerun into the same directory is byte identical
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(first) == 4
    assert main(["mesh-export", "--config", cfg, "--output", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_solve_smoke(tmp_path, capsys):
    cfg = write_cfg(tmp_path, example=3, case=1, element="elm1", levels=1, base_cells=8)
    out = tmp_path / "solve"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["level"] == 0
    assert summary["residual"] <= 1e-10
    assert summary["constraint_res"] <= 1e-9
    errs = summary["errors"]
    assert set(errs) == {"L2_u", "H1_u", "L2_u2", "H1_u2"}
    assert all(np.isfinite(v) and v > 0 for v in errs.values())
    dims, stats = summary["dims"], summary["stats"]
    assert set(stats) == {"unknowns", "factored", "eliminated", "lu_fill", "constraint_rel"}
    sizes = {k: v for k, v in stats.items() if k != "constraint_rel"}
    assert all(isinstance(v, int) for v in sizes.values())
    assert 0.0 <= stats["constraint_rel"] <= 1e-12
    assert stats["unknowns"] == dims["n"] + dims["n2"] + dims["m"]
    # elm1: the bubbles and the multiplier are eliminated before the LU
    assert stats["eliminated"] == 2 * dims["m"]
    assert stats["factored"] == stats["unknowns"] - stats["eliminated"] < stats["unknowns"]
    assert stats["lu_fill"] > 0

    vu = parse_vtk(out / "solution_u.vtk")
    assert vu["npoints"] == summary["dims"]["n"]  # q1: one dof per node
    assert "u" in vu["point_data"]
    v2 = parse_vtk(out / "solution_u2.vtk")
    assert "u2" in v2["point_data"] and "lambda" in v2["cell_data"]
    assert v2["cell_data"]["lambda"].size == summary["dims"]["m"]
    # center of the disk: u2 should be near the exact peak value 31/40
    centers = v2["points"][:, :2]
    k = int(np.argmin(np.hypot(centers[:, 0], centers[:, 1])))
    assert v2["point_data"]["u2"][k] == pytest.approx(31.0 / 40.0, abs=0.05)

    # an identical rerun into the same directory is byte identical
    names = ("summary.json", "solution_u.vtk", "solution_u2.vtk")
    first = [(out / name).read_bytes() for name in names]
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    assert [(out / name).read_bytes() for name in names] == first


def test_convergence_smoke_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, example=1, case=1, element="elm1", levels=3, base_cells=4)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--output", str(out)]) == 0
    csv1 = (out / "rates.csv").read_text()
    lines = csv1.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# immersed_base:")
    assert lines[2].split(",")[:3] == ["level", "h", "h2"]
    assert lines[-1].startswith("rate,nan,nan,")
    data = json.loads((out / "rates.json").read_text())
    assert data["levels"] == [0, 1, 2]
    assert len(data["errors"]["L2_u"]) == 3
    assert data["rates"]["L2_u"] > 0.5
    assert all(r <= 1e-10 for r in data["residuals"])
    assert len(data["stats"]) == 3
    for stats, dims in zip(data["stats"], data["dims"]):
        assert set(stats) == {
            "unknowns", "factored", "eliminated", "lu_fill", "constraint_rel",
            "transfer_unconverged", "transfer_max_miss",
        }
        assert 0.0 <= stats["constraint_rel"] <= 1e-12
        assert stats["unknowns"] == dims["n"] + dims["n2"] + dims["m"]
        assert stats["factored"] < stats["unknowns"]
        assert stats["transfer_unconverged"] >= 0 and stats["transfer_max_miss"] >= 0
    assert "fill" not in csv1 and "transfer" not in csv1 and "constraint" not in csv1

    # identical rerun into the same directory is byte identical
    assert main(["convergence", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "rates.csv").read_text() == csv1


def test_threads_knob_removed(tmp_path, capsys):
    # the old no-op threads key and --threads option are unknown now
    with pytest.raises(ConfigError, match="valid keys") as exc:
        load_config(write_cfg(tmp_path, "t.json", threads=1))
    assert "['threads']" in str(exc.value)
    assert all(repr(k) in str(exc.value) for k in RunConfig.__dataclass_fields__)
    cfg = write_cfg(tmp_path, example=1, levels=3, base_cells=4)
    out = tmp_path / "conv"
    with pytest.raises(SystemExit) as stop:
        main(["convergence", "--config", cfg, "--output", str(out), "--threads", "2"])
    assert stop.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_infsup_smoke(tmp_path, capsys):
    cfg = write_cfg(tmp_path, example=3, element="elm1", levels=3)
    out = tmp_path / "infsup"
    assert main(["infsup", "--config", cfg, "--output", str(out)]) == 0
    assert "verdict: stable" in capsys.readouterr().out
    csv = (out / "infsup.csv").read_text()
    lines = csv.splitlines()
    assert lines[1] == "# immersed_base: 1"
    assert lines[2] == "level,h2,dim_V2h,dim_Lh,sigma_min,gamma_est"
    assert lines[-1] == "# verdict: stable"
    gammas = [float(l.split(",")[5]) for l in lines[3:-1]]
    assert len(gammas) == 3 and all(g > 0 for g in gammas)
    record = json.loads((out / "infsup.json").read_text())
    assert set(record) == {
        "config", "immersed_base", "levels", "h2", "dims", "sigma_min",
        "gamma_est", "stats", "verdict",
    }
    assert record["config"]["element"] == "elm1" and record["verdict"] == "stable"
    assert record["levels"] == [0, 1, 2] and record["immersed_base"] == 1
    assert [float(_FMT % g) for g in record["gamma_est"]] == gammas
    for dims, s in zip(record["dims"], record["stats"]):
        assert set(dims) == {"n2", "m"}
        assert set(s) == {"factored", "lu_fill", "matvecs", "eps"}
        assert s["factored"] == dims["n2"] - dims["m"] and s["eps"] == 0.0
    js = (out / "infsup.json").read_text()
    # an identical rerun is byte identical
    assert main(["infsup", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "infsup.csv").read_text() == csv
    assert (out / "infsup.json").read_text() == js


def test_write_vtk_validation(tmp_path):
    m = build_mesh(DomainSpec("rectangle", bounds=(0, 1, 0, 1), base_cells=2))
    with pytest.raises(ValueError, match="point data"):
        write_vtk(str(tmp_path / "x.vtk"), m, point_data={"u": np.zeros(3)})
    with pytest.raises(ValueError, match="cell data"):
        write_vtk(str(tmp_path / "y.vtk"), m, cell_data={"lam": np.zeros(3)})


def test_write_vtk_exact_bytes(tmp_path):
    m = build_mesh(DomainSpec("rectangle", bounds=(0, 2, -1, 0.5), base_cells=1))
    path = tmp_path / "one.vtk"
    write_vtk(
        str(path), m, point_data={"u": [0.5, -1.25, 1 / 3, 0.0]},
        cell_data={"lambda": [-2.0]}, title="one cell",
    )
    assert path.read_bytes() == (
        b"# vtk DataFile Version 3.0\n"
        b"one cell\n"
        b"ASCII\n"
        b"DATASET UNSTRUCTURED_GRID\n"
        b"POINTS 4 double\n"
        b"0.000000000000e+00 -1.000000000000e+00 0.0\n"
        b"2.000000000000e+00 -1.000000000000e+00 0.0\n"
        b"0.000000000000e+00 5.000000000000e-01 0.0\n"
        b"2.000000000000e+00 5.000000000000e-01 0.0\n"
        b"CELLS 1 5\n"
        b"4 0 1 3 2\n"
        b"CELL_TYPES 1\n"
        b"9\n"
        b"POINT_DATA 4\n"
        b"SCALARS u double 1\n"
        b"LOOKUP_TABLE default\n"
        b"5.000000000000e-01\n"
        b"-1.250000000000e+00\n"
        b"3.333333333333e-01\n"
        b"0.000000000000e+00\n"
        b"CELL_DATA 1\n"
        b"SCALARS lambda double 1\n"
        b"LOOKUP_TABLE default\n"
        b"-2.000000000000e+00\n"
    )
