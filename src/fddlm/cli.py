"""Command line front end.

Subcommands: solve, convergence, infsup, mesh-export. A JSON config file
selects the benchmark (example, case, element, levels, ratio,
base_cells); --output sets the output directory. Every output file
embeds the fully resolved config, and float formatting is fixed so
identical configs produce byte identical CSV files.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import problems
from .infsup import infsup_sweep
from .runner import ELEMENTS, ERROR_COLUMNS, run_study, solve_level, study_meshes
from .system import SolverError, error_norms
from .vtk_io import write_vtk

__all__ = ["RunConfig", "load_config", "main", "ConfigError"]

_FMT = "%.12e"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    """Resolved run configuration with defaults filled in."""

    example: int = 3
    case: int = 1
    element: str = "elm1"
    levels: int = 4
    ratio: float = 1.0
    base_cells: int = 16
    infsup_base: int = 0  # 0 = per-geometry default
    output_dir: str = "out"


_INFSUP_BASE_DEFAULT = {"square_patch": 2, "lshape": 2, "disk": 1, "flower": 1}


def load_config(path=None, overrides=None):
    """Load and validate a config file, applying CLI overrides."""
    data = {}
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; valid keys: {sorted(known)}"
        )
    cfg = RunConfig(**data)
    if overrides:
        for k, v in overrides.items():
            if v is not None:
                setattr(cfg, k, v)
    for name, f in RunConfig.__dataclass_fields__.items():
        value = getattr(cfg, name)
        # JSON has one number type, so a float field takes ints too
        types = (int, float) if f.type is float else f.type
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{name} must be of type {f.type.__name__}, got {value!r}")
    if cfg.example not in problems.EXAMPLES:
        raise ConfigError(f"example must be one of {sorted(problems.EXAMPLES)}")
    if cfg.case not in problems.CASES:
        raise ConfigError(f"case must be one of {sorted(problems.CASES)}")
    if cfg.element not in ELEMENTS:
        raise ConfigError(
            f"unknown element tag {cfg.element!r}; valid tags: {sorted(ELEMENTS)}"
        )
    if cfg.levels < 1:
        raise ConfigError("levels must be >= 1")
    if cfg.ratio <= 0:
        raise ConfigError("ratio must be positive")
    if cfg.base_cells < 2:
        raise ConfigError("base_cells must be >= 2")
    if cfg.infsup_base < 0:
        raise ConfigError("infsup_base must be >= 0 (0 = per-geometry default)")
    return cfg


def _config_json(cfg):
    return json.dumps(asdict(cfg), sort_keys=True, separators=(", ", ": "))


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _ensure_outdir(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _fmt(x):
    return _FMT % x if np.isfinite(x) else "nan"


def _write_table(outdir, name, cfg, base, header, rows, trailer=None):
    """Write a CSV table under its config and immersed-base comment lines.

    ``header`` and each of ``rows`` are sequences of formatted fields;
    ``trailer``, if given, is written as the last line.
    """
    lines = [f"# config: {_config_json(cfg)}", f"# immersed_base: {base}"]
    lines += [",".join(r) for r in (header, *rows)]
    if trailer is not None:
        lines.append(trailer)
    with open(os.path.join(outdir, name), "w") as f:
        f.write("\n".join(lines) + "\n")


def cmd_solve(cfg):
    """Solve at the finest configured level and export fields + summary."""
    outdir = _ensure_outdir(cfg)
    level = cfg.levels - 1
    beta, beta2 = problems.CASES[cfg.case]
    bg_seq, im_seq, im_base = study_meshes(cfg.example, cfg.base_cells, cfg.ratio, cfg.levels)
    bg, t2 = bg_seq[level], im_seq[level]
    exact = problems.exact_solution(cfg.example, cfg.case)
    g = exact["u1"] if exact else None
    data = solve_level(bg, t2, cfg.element, beta, beta2, g=g)
    title = f"fddlm solve config={_config_json(cfg)}"
    write_vtk(
        os.path.join(outdir, "solution_u.vtk"),
        bg,
        point_data={"u": data.sol.u[: bg.num_nodes]},
        title=title,
    )
    write_vtk(
        os.path.join(outdir, "solution_u2.vtk"),
        t2,
        point_data={"u2": data.sol.u2[: t2.num_nodes]},
        cell_data={"lambda": data.sol.lam},
        title=title,
    )
    summary = {
        "config": asdict(cfg),
        "level": level,
        "h": bg.h,
        "h2": t2.h,
        "immersed_base": im_base,
        "dims": data.dims,
        "stats": data.sol.stats,
        "residual": data.sol.residual,
        "constraint_res": data.sol.constraint_res,
        "lambda_mass": data.lambda_mass,
        "outputs": ["solution_u.vtk", "solution_u2.vtk"],
    }
    if exact is not None:
        e = error_norms(
            data.sol, data.vh, data.v2,
            exact["u"], exact["grad_u"], exact["u2"], exact["grad_u2"],
        )
        summary["errors"] = {k: float(v) for k, v in e.items()}
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def cmd_convergence(cfg):
    """Refinement study; writes rates.csv and rates.json."""
    if cfg.levels < 3:
        raise ConfigError("convergence needs levels >= 3")
    outdir = _ensure_outdir(cfg)
    res = run_study(
        cfg.example,
        cfg.case,
        cfg.element,
        cfg.levels,
        base_cells=cfg.base_cells,
        ratio=cfg.ratio,
    )
    cols = list(ERROR_COLUMNS)
    rows = [
        [str(lvl), _fmt(res.h[i]), _fmt(res.h2[i])] + [_fmt(res.errors[c][i]) for c in cols]
        for i, lvl in enumerate(res.levels)
    ]
    rows.append(["rate", "nan", "nan"] + [_fmt(res.rates[c]) for c in cols])
    header = ["level", "h", "h2"] + cols
    _write_table(outdir, "rates.csv", cfg, res.immersed_base, header, rows)
    payload = {
        "config": asdict(cfg),
        "immersed_base": res.immersed_base,
        "levels": res.levels,
        "h": res.h,
        "h2": res.h2,
        "errors": res.errors,
        "rates": res.rates,
        "residuals": res.residuals,
        "constraint_res": res.constraint_res,
        "lambda_mass": res.lambda_mass,
        "dims": res.dims,
        "stats": res.stats,
    }
    _write_json(os.path.join(outdir, "rates.json"), payload)
    return res


def cmd_infsup(cfg):
    """Inf-sup sweep on the immersed geometry; writes infsup.csv and infsup.json."""
    outdir = _ensure_outdir(cfg)
    kind = problems.EXAMPLES[cfg.example]["immersed"][0]
    base = cfg.infsup_base or _INFSUP_BASE_DEFAULT[kind]
    spec = problems.immersed_spec(cfg.example, base)
    report = infsup_sweep(cfg.element, spec, cfg.levels)
    rows = [
        ("%d" % lvl, _fmt(h2), "%d" % n2, "%d" % m, _fmt(s), _fmt(g))
        for lvl, h2, n2, m, s, g in zip(
            report.levels, report.h2, report.dim_V2h, report.dim_Lh,
            report.sigma_min, report.gamma_est,
        )
    ]
    header = ("level", "h2", "dim_V2h", "dim_Lh", "sigma_min", "gamma_est")
    _write_table(
        outdir, "infsup.csv", cfg, spec.base_cells, header, rows,
        trailer=f"# verdict: {report.verdict()}",
    )
    payload = {
        "config": asdict(cfg),
        "immersed_base": spec.base_cells,
        "levels": report.levels,
        "h2": report.h2,
        "dims": [{"n2": n2, "m": m} for n2, m in zip(report.dim_V2h, report.dim_Lh)],
        "sigma_min": report.sigma_min,
        "gamma_est": report.gamma_est,
        "stats": report.stats,
        "verdict": report.verdict(),
    }
    _write_json(os.path.join(outdir, "infsup.json"), payload)
    return report


def cmd_mesh_export(cfg):
    """Export the background and immersed meshes of every level as VTK."""
    outdir = _ensure_outdir(cfg)
    bg_seq, im_seq, _ = study_meshes(cfg.example, cfg.base_cells, cfg.ratio, cfg.levels)
    title = f"fddlm mesh config={_config_json(cfg)}"
    paths = []
    for k in range(cfg.levels):
        for tag, m in (("background", bg_seq[k]), ("immersed", im_seq[k])):
            p = os.path.join(outdir, f"{tag}_level{k}.vtk")
            write_vtk(p, m, title=title)
            paths.append(p)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fddlm",
        description="Unfitted mixed finite element solver for elliptic "
        "interface problems (fictitious domain with a distributed "
        "Lagrange multiplier).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve one configuration and export VTK fields"),
        ("convergence", "refinement study with least-squares rates"),
        ("infsup", "inf-sup stability sweep on the immersed mesh"),
        ("mesh-export", "export meshes of all levels as VTK"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="output directory (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, {"output_dir": args.output})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "solve":
            summary = cmd_solve(cfg)
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.command == "convergence":
            res = cmd_convergence(cfg)
            for c in ERROR_COLUMNS:
                print(f"rate {c}: {res.rates[c]:.3f}")
        elif args.command == "infsup":
            report = cmd_infsup(cfg)
            for lvl, h2, g in zip(report.levels, report.h2, report.gamma_est):
                print(f"level {lvl}: h2={h2:.4e} gamma={g:.6e}")
            print(f"verdict: {report.verdict()}")
        else:
            for p in cmd_mesh_export(cfg):
                print(p)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
