"""The bench traces the program by wrapping module-level names listed in
``bench/spans.py``; installing its tracer fails if any of them is renamed or
deleted, so this catches such a change with the tier-1 tests.  The bench's
own self-test also reads ``trusslab.approx.compute_supports``."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import trusslab

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    for info in pkgutil.iter_modules(trusslab.__path__):
        importlib.import_module(f"trusslab.{info.name}")
    spans = _load_spans()
    traced = {(module, name) for module, name, _, _ in spans.TRACED}
    assert ("trusslab.triangles", "list_triangles") in traced
    assert ("trusslab.sampling", "_skip_pass") in traced
    before = trusslab.triangles.list_triangles
    with spans.Tracer().installed():
        assert trusslab.triangles.list_triangles is not before
        assert trusslab.approx.compute_supports is trusslab.triangles.compute_supports
    assert trusslab.triangles.list_triangles is before
