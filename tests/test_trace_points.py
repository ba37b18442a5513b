"""The benchmark's trace points name attributes that exist in the package.

``bench/tracing.py`` patches each ``(module, attribute)`` of its
``TRACE_POINTS`` with ``getattr``/``setattr``; a name dropped from the
package would make every traced benchmark run raise ``AttributeError``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    for module_name, attr, _, _ in tracing.TRACE_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
