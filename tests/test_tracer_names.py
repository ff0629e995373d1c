"""The benchmark tracer binds package functions by name; every traced name
must exist, or the traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # imports only the standard library
    return tracer.LAYERS


def test_every_traced_name_exists():
    missing = [f"{module}.{name}"
               for module, names in _layers().items()
               for name in names
               if not hasattr(importlib.import_module(f"bibennett.{module}"),
                              name)]
    assert not missing
