"""The traced benchmark wraps package functions by name; each must exist.

``benchmark/tracing.py`` fails a traced run when a boundary it reads is
missing, or when a boundary a workload expects never fires. Checking here
makes a deletion, or a fast path that skips a boundary, that would break
the traced benchmark fail the test suite instead.
"""

import functools
import importlib
import importlib.util
import inspect
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import oraclelab
from oraclelab import algebra, qsim, reproduce

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


def test_building_an_algorithm_fires_the_traced_validators(monkeypatch):
    # every binding of a function is counted, as tracing wraps every binding
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [oraclelab, *(importlib.import_module(f"oraclelab.{m}") for m in tracing.MODULES)]
    for attr in ("validate_povm", "validate_density_matrix", "random_povm"):
        fn = getattr(algebra, attr)
        wrapper = counted(f"algebra.{attr}", fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, name, wrapper)
    init = counted("qsim.QuantumAlgorithm.init", qsim.QuantumAlgorithm.__post_init__)
    monkeypatch.setattr(qsim.QuantumAlgorithm, "__post_init__", init)
    validators = {
        "algebra.validate_povm": 1,
        "algebra.validate_density_matrix": 1,
        "qsim.QuantumAlgorithm.init": 1,
    }

    alg = qsim.random_algorithm(2, algebra.cyclic(2), 1, 1, seed=0)
    assert calls == {**validators, "algebra.random_povm": 1}
    calls.clear()
    qsim.algorithm_from_json(qsim.algorithm_to_json(alg))
    assert calls == validators


def test_traced_run_all_spans_each_criterion_once():
    # the tracer wraps reproduce.CRITERIA entries by position, so run_all must
    # call every criterion through that list, and criterion 10's rerun must not
    modules = {short: importlib.import_module(f"oraclelab.{short}") for short in tracing.MODULES}
    tracer = tracing.Tracer()
    tracer.install(oraclelab, modules)
    try:
        reproduce.run_all()
    finally:
        tracer.enable(False)
    stats, _ = tracer.take()
    tags = tracing.CRITERION_TAGS
    spans = {tag: stats.get(f"reproduce.criterion.{tag}", (0,))[0] for tag in tags}
    assert spans == dict.fromkeys(tags, 1)


def test_one_pass_of_each_benchmark_workload_meets_its_truths(tmp_path, monkeypatch):
    # the benchmark checks every output against a truth known without the
    # program, and its traced run needs every boundary a workload expects to
    # fire; a slip in either would otherwise show only in a benchmark run
    spec = importlib.util.spec_from_file_location("workloads", TRACING.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # workloads imports tracing by that name, and its dataclasses look it up
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    modules = {short: importlib.import_module(f"oraclelab.{short}") for short in tracing.MODULES}
    lab = types.SimpleNamespace(**modules)
    tracer = tracing.Tracer()
    tracer.install(oraclelab, modules)
    failed, silent = [], {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            scratch = tmp_path / name
            scratch.mkdir()
            ops = workload.build(lab, 1, str(scratch))
            assert ops, name
            failed += [(name, op.name) for op in ops if not op.check(op.run())]
            stats, _ = tracer.take()
            silent[name] = sorted(set(workload.expected) - set(stats))
    finally:
        tracer.enable(False)
    assert failed == []
    assert silent == dict.fromkeys(workloads.WORKLOADS, [])
