"""The benchmark's per-layer spans name functions that exist and that the
pipeline calls.

``bench/spans.py`` skips a layer whose function it cannot find, so a
renamed or deleted function would silently drop its span from traced
runs; a function that stays but is no longer called records no span
either.  These checks make both a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import singpencil as sp
from singpencil import problems

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    return spans


SPANS = _spans()
LAYERS = SPANS.LAYERS


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_span_layer_resolves_to_package_function(name):
    modname, attr, _ = LAYERS[name]
    assert callable(getattr(importlib.import_module(modname), attr, None)), \
        f"{name}: {modname}.{attr} is not a callable"


def test_every_span_layer_is_called(tmp_path):
    """A two-sided solve, a one-sided one and a Matrix Market round trip
    record a span for every layer."""
    toy = problems.gen_kronecker_toy().pencil
    rect = problems.gen_rectangular(n=200).pencil
    with SPANS.Tracer().installed() as tracer:
        sp.solve_singular_full(toy, sp.SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=5))
        sp.solve_singular_full(rect, sp.SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10,
                                                     implicit_restarts=2))
        sp.write_matrix_market(tmp_path / "toy.mtx", toy.A)
        sp.read_matrix_market(tmp_path / "toy.mtx")
    assert sorted({span[0] for span in tracer.spans}) == sorted(LAYERS)
