"""The benchmark's per-layer spans name functions that exist.

``bench/spans.py`` skips a layer whose function it cannot find, so a
renamed or deleted function would silently drop its span from traced
runs; this check makes that a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    return spans.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_span_layer_resolves_to_package_function(name):
    modname, attr, _ = LAYERS[name]
    assert callable(getattr(importlib.import_module(modname), attr, None)), \
        f"{name}: {modname}.{attr} is not a callable"
