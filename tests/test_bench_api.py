"""The program API that the benchmark's tracer reads stays in place.

`bench/` runs outside the tests' collection path, so a rename there would
otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from qcatlab.groups import CatMap, SympMatrix, build_hecke_torus
from qcatlab.models import Realization, weil_op

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _tracer().TRACED
    assert traced
    for layer, name in traced:
        assert callable(getattr(importlib.import_module(f"qcatlab.{layer}"), name, None)), \
            f"qcatlab.{layer}.{name}"


def test_torus_has_order_and_generator():
    # bench/checks.py reads both to recompute the defining realization's spectrum
    torus = build_hecke_torus(CatMap(2, 1, 1, 1), 7)
    assert torus.order == 8
    assert isinstance(torus.generator, SympMatrix)


def test_weil_op_has_matrix():
    op = weil_op(Realization.standard(7), SympMatrix(2, 1, 1, 1, 7))
    assert op.matrix.shape == (7, 7)
