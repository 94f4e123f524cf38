"""Package surface: every exported name resolves."""

import importlib
import pkgutil

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
