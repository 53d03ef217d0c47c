"""The benchmark's own tests: each output check passes on a fresh artifact and
fails on a perturbed copy of it.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import sys
import time

import pytest

import checks
import run

sys.path.insert(0, str(run.CHECKOUT / "src"))

from qcatlab import cli  # noqa: E402

LO, HI = 5, 31  # p = 5 ramified; 11, 19, 29, 31 split; 7, 13, 17, 23 inert


def _sweep(tmp_path_factory, capsys, *extra):
    out = tmp_path_factory.mktemp("sweep")
    code = cli.main(["sweep", "--matrix", "2,1;1,1", "--primes", f"{LO}..{HI}",
                     "--out", str(out), *extra])
    skips = checks.read_skips(capsys.readouterr().out)
    return checks.read_sweep_csv(out / "sweep.csv"), skips, code


@pytest.fixture
def defining(tmp_path_factory, capsys):
    return _sweep(tmp_path_factory, capsys)


@pytest.fixture
def all_realizations(tmp_path_factory, capsys):
    return _sweep(tmp_path_factory, capsys, "--realizations", "all", "--verify-samples", "1")


def _primes(rows):
    return sorted({r.p for r in rows})


def _bump(rows, pick, sup):
    """A copy of rows with the first record matching `pick` given a new sup."""
    i = next(i for i, r in enumerate(rows) if pick(r))
    out = list(rows)
    out[i] = dataclasses.replace(rows[i], sup=sup, a_max=sup * sup)
    return out


def test_fresh_artifacts_pass(defining, all_realizations):
    rows, skips, code = defining
    outcome = checks.account(LO, HI, rows, skips, code)
    assert code == 1  # split records above the flat 2 make the sweep exit 1 by design
    assert outcome.attempted == [7, 11, 13, 17, 19, 23, 29, 31] and not outcome.failed
    assert checks.check_defining(rows, skips, LO, HI, outcome.ok_primes, 0, 4) == []
    rows, skips, code = all_realizations
    outcome = checks.account(LO, HI, rows, skips, code)
    assert not outcome.failed
    assert checks.check_all_realizations(rows, skips, LO, HI, outcome.ok_primes) == []


@pytest.mark.parametrize("kind", ["inert", "split"])
def test_sup_above_its_bound_fails(defining, kind):
    rows, skips, code = defining
    pick = lambda r: r.multiplicity == 1 and r.kind == kind  # noqa: E731
    p = next(r.p for r in rows if pick(r))
    bad = _bump(rows, pick, checks.sup_bound(kind, p) + 1e-6)
    assert any("above" in e for e in checks.check_bounds(bad))
    assert checks.account(LO, HI, bad, skips, code).failed == {
        p: "gating record above its bound"}


def test_realization_removed_fails(all_realizations):
    rows, skips, _ = all_realizations
    bad = [r for r in rows if not (r.p == 13 and r.realization == "1:3")]
    assert checks.check_realizations(13, [r for r in bad if r.p == 13])
    assert checks.check_all_realizations(bad, skips, LO, HI, _primes(rows))


def test_orbit_value_changed_fails(all_realizations):
    rows, skips, _ = all_realizations
    line = next(min(o) for o in checks.torus_orbits(17) if len(o) > 1)
    pick = lambda r: (r.p == 17 and r.multiplicity == 1  # noqa: E731
                      and checks.line_of_tag(r.realization, 17) == line)
    sup = next(r.sup for r in rows if pick(r))
    bad = _bump(rows, pick, sup - 1e-6)
    assert checks.check_orbit_invariance(17, [r for r in bad if r.p == 17])
    assert checks.check_all_realizations(bad, skips, LO, HI, _primes(rows))


def test_split_fixed_line_modulus_fails(all_realizations):
    rows, _, _ = all_realizations
    (line,) = next(o for o in checks.torus_orbits(19) if len(o) == 1)
    pick = lambda r: (r.p == 19 and r.multiplicity == 1  # noqa: E731
                      and checks.line_of_tag(r.realization, 19) == line)
    bad = _bump(rows, pick, (19 / 18) ** 0.5 - 1e-6)
    assert checks.check_split_fixed_lines(19, [r for r in bad if r.p == 19])


def test_multiplicity_law_and_spectral_sample_fail(defining):
    rows, _, _ = defining
    assert checks.check_multiplicities(13, [r for r in rows if r.p == 13][1:])
    sample = checks.spectral_samples(rows, _primes(rows), seed=5, n=2)
    assert checks.check_spectral_sample(sample) == []
    moved = [dataclasses.replace(r, sup=r.sup + 1e-7) for r in sample]
    assert len(checks.check_spectral_sample(moved)) == 2


def test_accounting_of_failed_and_missing_primes(defining):
    rows, skips, code = defining
    crashed = {**skips, 13: ["failed: boom"]}
    rest = [r for r in rows if r.p not in (13, 17)]
    outcome = checks.account(LO, HI, rest, crashed, code)
    assert outcome.failed == {13: "exception: failed: boom", 17: "missing from artifact"}
    assert set(checks.account(LO, HI, rows, skips, None).failed) == set(outcome.attempted)


def test_traced_round_accounts_for_its_wall_time(tmp_path):
    wl = run.Workload(5, 13, "all")
    rnd = run.run_round("traced", wl, 0, tmp_path, time.monotonic(), traced=True)
    summary = rnd.report["trace"]
    assert not rnd.errors and not rnd.outcome.failed
    unaccounted = rnd.report["wall_s"] - sum(summary["self_s"].values())
    assert abs(unaccounted) < 0.01
    assert summary["calls"]["harness.supremum_records"] == len(
        {(r.p, r.realization, r.character) for r in checks.read_sweep_csv(
            tmp_path / "traced" / "sweep.csv")})
    assert summary["calls"]["hecke.transport"] > 0
