"""Package surface: every exported name resolves, and the README's
tolerance table names the tolerance constants of the source."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fddlm

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(fddlm.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", ["fddlm"] + [f"fddlm.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


SRC = Path(fddlm.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants():
    """{file name: names assigned at the top level of that module}."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        out[path.name] = {
            t.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
    return out


def tolerance_table():
    """(first cell, file cell) of every row of the README tolerance table."""
    text = README.read_text().split("Every tolerance in `src/fddlm`", 1)[1]
    rows = re.findall(r"^\|(.*)\|$", text.split("\n\n", 2)[1], flags=re.M)
    cells = [[c.strip() for c in row.split(" | ")] for row in rows[2:]]
    return [(c[0], c[-1]) for c in cells]


def test_readme_tolerance_table_matches_the_source():
    defined = module_constants()
    named = set()
    for first, files in tolerance_table():
        names = [n for n in re.findall(r"`([^`]+)`", first) if CONSTANT.fullmatch(n)]
        for name in names:
            homes = re.findall(r"`([^`]+\.py)`", files)
            assert any(name in defined[f] for f in homes), f"{name} is not defined in {files}"
        named.update(names)
    tolerances = {
        n for names in defined.values() for n in names if re.fullmatch(r"_?[A-Z0-9_]*_R?TOL", n)
    }
    assert tolerances <= named, f"tolerances missing from the README table: {tolerances - named}"
