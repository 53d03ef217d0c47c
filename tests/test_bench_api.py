"""The program API that the benchmark's tracer and output checks read stays
in place, and the checks pass on the program's own artifacts.

`bench/` runs outside the tests' collection path, so a rename there, or a
change to the text it parses, would otherwise show only when the benchmark
runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qcatlab import cli
from qcatlab.groups import CatMap, SympMatrix, build_hecke_torus
from qcatlab.models import Realization, weil_op

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _bench_module("tracer").TRACED
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


@pytest.mark.parametrize("lo, hi, extra", [
    (5, 31, []),
    (5, 13, ["--realizations", "all", "--verify-samples", "1"]),
], ids=["defining", "all-realizations"])
def test_bench_checks_pass_on_a_fresh_sweep(tmp_path, capsys, lo, hi, extra):
    # the benchmark's own output checks, on a sweep.csv and stdout from the
    # CLI: they parse the realization tags, kinds and skip lines
    checks = _bench_module("checks")
    code = cli.main(["sweep", "--matrix", "2,1;1,1", "--primes", f"{lo}..{hi}",
                     "--out", str(tmp_path), *extra])
    skips = checks.read_skips(capsys.readouterr().out)
    rows = checks.read_sweep_csv(tmp_path / "sweep.csv")
    outcome = checks.account(lo, hi, rows, skips, code)
    assert outcome.ok_primes and not outcome.failed
    if extra:
        errors = checks.check_all_realizations(rows, skips, lo, hi, outcome.ok_primes)
    else:
        errors = checks.check_defining(rows, skips, lo, hi, outcome.ok_primes, 0, 2)
    assert errors == []
