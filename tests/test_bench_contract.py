"""The names the benchmark under bench/ calls or traces still exist.

The benchmark reads them from the source tree, so a rename in src/ breaks
it without failing any other test. The traced list and the workloads'
imports are read from bench/spans.py and bench/workloads.py themselves
rather than copied here."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from critpoly import cli
from critpoly.quadrature import quad_mellin_T, quad_mellin_gegenbauer

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    layers = _load("spans").LAYER_FUNCTIONS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"critpoly.{layer}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (layer, missing)


def test_workloads_import_and_warm_up():
    # loading runs the workloads' imports from critpoly; each warm-up calls
    # its workload's operations once, at a small size
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"exact-scale", "verify-all",
                                        "mellin-batch"}
    for workload in workloads.WORKLOADS.values():
        workload.warm_up()


def test_cli_names_the_benchmark_reads():
    assert isinstance(cli.SUITES, dict) and cli.SUITES
    assert cli._max_workers() == 1


def test_each_suite_call_returns_its_row():
    # the benchmark times each SUITES call as the suite's time, so the call
    # must run the checks itself rather than hand back a generator
    for name, suite in cli.SUITES.items():
        assert not inspect.isgeneratorfunction(suite), name
        row = suite(3, 0)
        assert isinstance(row, dict) and row["pass"], (name, row)
        checks = row["checks"]
        assert type(checks) is int and checks > 0, (name, row)


def test_quadrature_counts_its_evaluations():
    for q in (quad_mellin_gegenbauer(2, 1.0, 2.0), quad_mellin_T(2, 2.0)):
        assert isinstance(q.evaluations, int) and q.evaluations > 0
