import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mcombine

SUBMODULES = [f"mcombine.{m.name}" for m in pkgutil.iter_modules(mcombine.__path__)]


@pytest.mark.parametrize("name", ["mcombine", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_tracer_finds_every_wrapped_name():
    # the benchmark's tracer wraps functions by module attribute name; a
    # renamed or removed one fails here instead of in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
