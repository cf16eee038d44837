"""The names the benchmark under bench/ calls or traces still exist.

The benchmark reads them from the source tree, so a rename in src/ breaks
it without failing any other test. The traced list is read from
bench/spans.py itself rather than copied here."""
import importlib
import importlib.util
from pathlib import Path

from critpoly import cli
from critpoly.quadrature import quad_mellin_T, quad_mellin_gegenbauer

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


def test_every_traced_name_exists():
    layers = _layer_functions()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"critpoly.{layer}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (layer, missing)


def test_cli_names_the_benchmark_reads():
    assert isinstance(cli.SUITES, dict) and cli.SUITES
    workers = cli._max_workers()
    assert isinstance(workers, int) and not isinstance(workers, bool)


def test_quadrature_counts_its_evaluations():
    for q in (quad_mellin_gegenbauer(2, 1.0, 2.0), quad_mellin_T(2, 2.0)):
        assert isinstance(q.evaluations, int) and q.evaluations > 0
