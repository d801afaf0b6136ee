"""The functions the benchmark tracer wraps exist in the package.

``perfbench/spans.py`` wraps package functions by module and attribute
name and counts a missing one as a failed benchmark operation.  Checking
the names here makes a rename or removal of a traced layer fail the test
suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_are_package_callables():
    spans = _load_spans()
    targets = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    targets += [("geometry_sl2", name) for name in spans.GEOMETRY_FUNCTIONS]
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not callable(getattr(
            importlib.import_module(f"orbit_localize.{module}"), attr, None
        ))
    ]
    assert missing == []
