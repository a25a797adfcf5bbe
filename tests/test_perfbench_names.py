"""The benchmark's span tracer wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_are_package_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, name, _ in spans.TRACED:
        target = getattr(importlib.import_module(f"qaction.{module}"), name, None)
        assert callable(target), f"perfbench/spans.py traces qaction.{module}.{name}"
