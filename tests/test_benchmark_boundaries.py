"""The traced benchmark wraps package functions by name; each must exist.

``benchmark/tracing.py`` fails a traced run when a boundary it reads is
missing. Checking the names here makes a deletion that would break the
traced benchmark fail the test suite instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name", sorted(tracing.required_boundaries()))
def test_traced_boundary_resolves(name):
    assert name not in tracing.HOT
    module_name, *path = name.split(".")
    assert module_name in tracing.MODULES
    module = importlib.import_module(f"oraclelab.{module_name}")
    if path[0] == "criterion":
        (tag,) = path[1:]
        assert tag in [t for _, t, _ in module.CRITERIA]
        return
    obj = getattr(module, path[0])
    assert obj.__module__ == module.__name__  # defined here, not imported
    if len(path) == 2:  # a method; tracing names __post_init__ "init"
        obj = vars(obj)["__post_init__" if path[1] == "init" else path[1]]
    else:
        assert len(path) == 1
    assert inspect.isfunction(obj)
