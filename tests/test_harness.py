import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import apply_chirps_with_a_moved_eigenvalue
from oracles import (
    projector_identity_check,
    records_by_transport_to_every_line,
    records_csv_by_rows,
    split_closed_form,
)
import qcatlab
from qcatlab.arith import pow_mod, unit_roots
from qcatlab.groups import CatMap, build_hecke_torus, classify_prime, line_index
from qcatlab.hecke import (
    HeckeEigenfunction,
    eigenfunction,
    hecke_spectrum,
    torus_orbits,
    transport,
)
from qcatlab.models import Realization
from qcatlab.harness import (
    _NO_RECORDS,
    _defining_spectrum,
    _sweep_one_prime,
    CSV_CHUNK,
    RECORD_DTYPE,
    PrimeRecords,
    SweepConfig,
    SweepResult,
    gating_failures,
    su2_abs_trace_cdf,
    su2_abs_trace_moment,
    supremum_records,
    universal_sweep,
    value_distribution,
    write_records_csv,
)

A = CatMap(2, 1, 1, 1)


def config(lo, hi, **kw):
    return SweepConfig(matrix=A, prime_lo=lo, prime_hi=hi, **kw)


def test_supremum_check_split_closed_form(tmp_path):
    fn = split_closed_form(build_hecke_torus(A, 11))
    records, _ = supremum_records(fn, "split")
    assert records.dtype == RECORD_DTYPE
    assert records["character"].tolist() == list(range(10))
    assert np.all(np.abs(records["sup"] - math.sqrt(11 / 10)) < 1e-9)  # ~1.0488
    assert records["passed"].all() and records["gating"].all()
    assert (records["multiplicity"] == 1).all() and (records["p"] == 11).all()
    # a_max is not stored: the CSV writes it from sup; the form is the
    # block's line alone, each column keeping its least tie point
    form = PrimeRecords(records[np.newaxis], records["realization"][:1],
                        np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
                        ((records["argmax"], np.arange(records.size)),))
    write_records_csv(tmp_path / "sweep.csv", [form])
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    a_max = np.array([float(line.split(",")[7]) for line in lines])
    assert np.all(np.abs(a_max - records["sup"] ** 2) < 1e-12)


def test_argmax_is_least_point_of_a_tied_maximum():
    # |v(2)| = |v(5)| up to rounding, with the later entry the larger: the
    # record names the least tied point, not whichever one rounding favours
    p = 7
    mags = np.array([0.5, 1.0, 1.5, 0.5, 1.0, 1.5, 0.25])
    v = mags * np.sqrt(p / np.sum(mags ** 2)) * np.exp(1j * np.arange(p))
    v[5] *= 1 + 2e-16
    assert np.argmax(np.abs(v)) == 5
    fn = HeckeEigenfunction(Realization.standard(p), v[:, np.newaxis], np.array([0]))
    (rec,), _ = supremum_records(fn, "inert")
    assert rec["argmax"] == 2
    assert rec["sup"] == np.abs(v).max()


def test_supremum_check_enforces_normalization():
    torus = build_hecke_torus(A, 7)
    spectrum = hecke_spectrum(torus, Realization.standard(7))
    k = int(np.flatnonzero(spectrum.multiplicities() == 1)[0])
    fn = eigenfunction(spectrum, k)
    fn.vectors = fn.vectors * 2.0
    with pytest.raises(ValueError):
        supremum_records(fn, "inert")
    fn.vectors = np.full_like(fn.vectors, np.nan)  # a numerical breakdown
    with pytest.raises(ValueError, match="nan"):
        supremum_records(fn, "inert")


def test_sweep_p7_all_realizations_all_pass():
    result = universal_sweep(config(7, 7, realizations="all"))
    # 8 realizations x 7 multiplicity-one characters
    assert len(result.records) == 56
    assert result.records["passed"].all()
    assert (result.records["kind"] == "inert").all()
    assert len(set(result.records["realization"])) == 8
    assert not result.skips


def test_sweep_skips_ramified_with_log():
    result = universal_sweep(config(5, 7))
    assert any(p == 5 and "ramified" in reason for p, reason in result.skips)
    assert set(result.records["p"].tolist()) == {7}


def test_sweep_p3_reported_but_not_gating():
    result = universal_sweep(config(3, 3))
    assert len(result.records)
    assert (result.records["p"] == 3).all() and not result.records["gating"].any()


def test_sweep_degenerate_rows_not_gating():
    result = universal_sweep(config(11, 11))
    deg = result.records[result.records["multiplicity"] > 1]
    assert len(deg) == 2  # two basis vectors of the one two-dimensional space
    assert not deg["gating"].any()
    assert np.count_nonzero(result.records["multiplicity"] == 1) == 9


def test_sweep_isolation_of_prime_failures(monkeypatch):
    import qcatlab.harness as harness

    original = harness._sweep_one_prime

    def flaky(p, *rest):
        if p == 11:
            raise RuntimeError("injected")
        return original(p, *rest)

    monkeypatch.setattr(harness, "_sweep_one_prime", flaky)
    result = universal_sweep(config(7, 13))
    assert result.errors == [(11, "RuntimeError: injected")]
    assert all(p != 11 for p, _ in result.skips)  # an error is not a skip
    assert set(result.records["p"].tolist()) == {7, 13}


def test_flagged_character_excluded_from_sweep_and_distribution(monkeypatch):
    import qcatlab.hecke as hecke

    # rho(gen) on the p = 7 model with character 7's eigenvalue moved halfway
    # towards the next root of N = 8, injected through the residual's
    # application of rho(gen): that character fails the eigenvector equation, and
    # its residual flags it
    _, stand_in = apply_chirps_with_a_moved_eigenvalue(
        build_hecke_torus(A, 7), Realization.standard(7), 7)
    monkeypatch.setattr(hecke, "_apply_chirps", stand_in)
    sweep = universal_sweep(config(7, 7))
    assert len(sweep.records) == 6
    (skip,) = sweep.skips
    assert "indeterminate" in skip[1]
    assert skip[1].split()[:2] == ["character", "7"]
    # character 4 is empty at p = 7
    assert set(sweep.records["character"].tolist()) == {0, 1, 2, 3, 5, 6}
    report = value_distribution(config(7, 7))
    assert report.sample_count == 6 * 7
    assert report.skipped == [skip]


def test_nan_residuals_skip_every_character_of_the_prime(monkeypatch):
    import qcatlab.hecke as hecke

    # p = 13 is inert with 13 simple characters: a rho(gen) application that
    # returns NaN leaves no eigenvector equation checked, so none may be written
    monkeypatch.setattr(hecke, "_apply_chirps",
                        lambda chirps, block: np.full_like(block, np.nan))
    sweep = universal_sweep(config(13, 13))
    assert len(sweep.records) == 0
    assert len(sweep.skips) == 13
    assert all("indeterminate" in reason for _, reason in sweep.skips)
    assert not sweep.errors


def test_unit_roots_cache_is_bounded():
    # each prime reads the tables of p and of the torus order N; a sweep
    # must not keep the tables of every prime it has passed
    unit_roots.cache_clear()
    universal_sweep(config(5, 61))
    info = unit_roots.cache_info()
    assert info.misses > 16  # the sweep read more tables than the bound keeps
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 16


def test_import_and_serial_sweep_load_no_multiprocessing(tmp_path):
    # only a run that starts a process pool imports it: the import of
    # multiprocessing (with socket, selectors and queue) costs start-up time
    code = f"""
import sys
import qcatlab.cli
print("multiprocessing" in sys.modules)
qcatlab.cli.main(["sweep", "--matrix", "2,1;1,1", "--primes", "5..13", "--jobs", "1",
                  "--out", {str(tmp_path)!r}])
print("multiprocessing" in sys.modules)
"""
    out = _fresh_stdout(code)
    assert (out[0], out[-1]) == ("False", "False")


def test_sweep_transport_verification_runs():
    result = universal_sweep(config(7, 7, realizations="all", verify_samples=3))
    assert len(result.records) == 56


def test_sweep_builds_one_intertwiner_per_orbit(monkeypatch):
    import qcatlab.harness as harness
    import qcatlab.hecke as hecke
    import qcatlab.models as models

    calls = {"hecke": 0, "models": 0, "transport": 0, "spectrum": 0, "residual": 0}
    draws = []

    def counting(module, original):
        def wrapper(*args):
            calls[module] += 1
            return original(*args)
        return wrapper

    def recording(*args, original=harness._verify_draws):
        drawn = original(*args)
        draws.extend(drawn)
        return drawn

    monkeypatch.setattr(harness, "_verify_draws", recording)
    monkeypatch.setattr(hecke, "intertwine", counting("hecke", hecke.intertwine))
    monkeypatch.setattr(hecke, "_apply_chirps", counting("residual", hecke._apply_chirps))
    monkeypatch.setattr(harness, "transport", counting("transport", harness.transport))
    monkeypatch.setattr(harness, "hecke_spectrum", counting("spectrum", harness.hecke_spectrum))
    monkeypatch.setattr(models, "canonical_intertwiner",
                        counting("models", models.canonical_intertwiner))
    result = universal_sweep(config(13, 13, realizations="all", verify_samples=1))
    assert len(set(result.records["realization"])) == 14
    # p = 13 is inert: two torus orbits, one represented by the defining line.
    # Transports: the block to the other representative, once, and the
    # defining block to each drawn line, once, each one intertwiner
    # application; the residual of the defining spectrum applies rho(gen)
    # once; no second spectrum and no dense operator
    assert draws and calls["transport"] == 1 + len(draws) and calls["spectrum"] == 1
    assert calls["hecke"] == calls["transport"] and calls["residual"] == 1
    assert calls["models"] == 0


def _fresh_stdout(code: str) -> list[str]:
    """The words code prints when run in a fresh interpreter on this package."""
    src = str(Path(qcatlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.split()


def test_validation_and_defining_sweep_load_no_numpy_random():
    # the family is validated on deterministic probes, so the validation and
    # a defining sweep never import numpy.random, whose import alone costs
    # resident memory; a fresh interpreter sees what they load
    code = """
import sys
from qcatlab.groups import CatMap
from qcatlab.harness import SweepConfig, universal_sweep
from qcatlab.models import averaging_scale
averaging_scale(101)
result = universal_sweep(SweepConfig(matrix=CatMap(2, 1, 1, 1), prime_lo=101, prime_hi=101))
print(len(result.records), "numpy.random" in sys.modules)
"""
    assert _fresh_stdout(code) == ["101", "False"]


def test_verify_draws_load_no_numpy_random():
    # the verify samples are drawn with the standard library's generator, so
    # an all-realizations sweep with --verify-samples never imports
    # numpy.random either; a fresh interpreter sees what it loads
    code = """
import sys
from qcatlab.groups import CatMap
from qcatlab.harness import SweepConfig, universal_sweep
result = universal_sweep(SweepConfig(matrix=CatMap(2, 1, 1, 1), prime_lo=7, prime_hi=13,
                                     realizations="all", verify_samples=3, seed=5))
print(len(result.errors), "numpy.random" in sys.modules)
"""
    assert _fresh_stdout(code) == ["0", "False"]


def test_sweep_and_its_csv_load_no_numpy_ma(tmp_path):
    # numpy.ma costs about 30 ms to import, and np.unique imports it when
    # asked for no index; neither sweep nor sweep.csv needs it
    code = f"""
import sys
from qcatlab.groups import CatMap
from qcatlab.harness import SweepConfig, universal_sweep, write_records_csv
for realizations in ("defining", "all"):
    result = universal_sweep(SweepConfig(matrix=CatMap(2, 1, 1, 1), prime_lo=5, prime_hi=13,
                                         realizations=realizations))
    write_records_csv({str(tmp_path / "sweep.csv")!r}, result.per_prime)
print(len(result.records), "numpy.ma" in sys.modules)
"""
    assert _fresh_stdout(code) == ["370", "False"]


def test_sweep_builds_one_block_per_prime(monkeypatch):
    import qcatlab.harness as harness

    moved, scored, draws = [], [], []

    def counting_transport(fn, r, original=harness.transport):
        moved.append(fn.characters.size)
        return original(fn, r)

    def counting_records(fn, kind, original=harness.supremum_records):
        scored.append((fn.realization.tag(), fn.characters.size))
        return original(fn, kind)

    def recording_draws(*args, original=harness._verify_draws):
        drawn = original(*args)
        draws.extend(drawn)
        return drawn

    monkeypatch.setattr(harness, "transport", counting_transport)
    monkeypatch.setattr(harness, "supremum_records", counting_records)
    monkeypatch.setattr(harness, "_verify_draws", recording_draws)
    for p, n_reps in ((11, 4), (13, 2)):  # split, inert
        for calls in (moved, scored, draws):
            calls.clear()
        result = universal_sweep(config(p, p, realizations="all", verify_samples=1))
        rep, _ = torus_orbits(build_hecke_torus(A, p))
        reps = np.unique(rep).tolist()
        assert len(reps) == n_reps and p in reps  # line p is the defining one
        n = len(result.records) // (p + 1)
        # the whole block moves once to each representative but the defining
        # line, and once to each drawn line
        assert draws and moved == [n] * (n_reps - 1 + len(draws))
        # each representative's block is scored in one pass, all characters
        # at once, and each drawn line once, all characters again
        assert [size for _, size in scored] == [n] * (n_reps + len(draws))
        assert len({tag for tag, _ in scored[:n_reps]}) == n_reps
        assert len(set(result.records["realization"])) == p + 1


def record_mismatches(records: np.ndarray, expected: np.ndarray) -> list[str]:
    """The fields in which two record tables differ: every field exactly,
    sup to 1e-12."""
    if len(records) != len(expected):
        return ["length"]
    bad = [name for name in RECORD_DTYPE.names
           if name != "sup" and not np.array_equal(records[name], expected[name])]
    if not np.abs(records["sup"] - expected["sup"]).max(initial=0.0) < 1e-12:
        bad.append("sup")
    return bad


def oracle_mismatches(matrix: CatMap, records: np.ndarray) -> list[str]:
    """record_mismatches of an all-realizations sweep's records against the
    oracle that transports the defining block to every line."""
    expected = [_NO_RECORDS]
    for p in sorted(set(records["p"].tolist())):
        spectrum = hecke_spectrum(build_hecke_torus(matrix, p), Realization.standard(p))
        block = spectrum.eigenfunctions
        fn = block.columns(~spectrum.flagged[block.characters])
        expected.append(records_by_transport_to_every_line(fn, classify_prime(matrix, p)))
    return record_mismatches(records, np.concatenate(expected))


@pytest.mark.parametrize("matrix", [A, CatMap(3, 2, 1, 1)], ids=["2,1;1,1", "3,2;1,1"])
def test_sweep_rows_match_one_transport_per_line(matrix):
    # the derived rows of every non-representative line, degenerate ones
    # included, against the block transported to each line and scored there
    cfg = SweepConfig(matrix=matrix, prime_lo=3, prime_hi=61, realizations="all")
    records = universal_sweep(cfg).records
    primes = {p for p in cfg.primes() if classify_prime(matrix, p) != "ramified"}
    assert set(records["p"].tolist()) == primes
    assert (records["multiplicity"] > 1).any()
    assert oracle_mismatches(matrix, records) == []


def _dilation_mutant(wrong):
    def install(monkeypatch):
        import qcatlab.harness as harness

        def mutant(torus, original=harness.torus_orbits):
            rep, dilation = original(torus)
            return rep, wrong(dilation, torus.p)
        monkeypatch.setattr(harness, "torus_orbits", mutant)
    return install


def _character_mutant(monkeypatch):
    import qcatlab.harness as harness

    def mutant(fn, kind, original=harness.supremum_records):
        records, ties = original(fn, kind)
        records["character"] = np.roll(records["character"], 1)
        return records, ties
    monkeypatch.setattr(harness, "supremum_records", mutant)


MUTANTS = {
    "dilation-one": _dilation_mutant(lambda e, p: np.ones_like(e)),
    "dilation-inverse": _dilation_mutant(lambda e, p: pow_mod(e, p - 2, p)),
    "character-index": _character_mutant,
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("p", [7, 11, 13, 19, 23, 29, 37, 53])
def test_derivation_mutants_fail_verify_and_oracle(monkeypatch, mutant, p):
    # one verify draw checks every row of its drawn line, so a wrong
    # dilation shows in some row's argmax, as at p = 19 and 23 with seed 0,
    # where checking the drawn character's row alone missed it.  At p = 37
    # and 53 seed 0 draws a line with e^2 = -1, where e^-1 = -e relabels
    # every even modulus as e does, so the draw also checks a line whose
    # dilation tells them apart.  The oracle sees every row of every line
    MUTANTS[mutant](monkeypatch)
    result = universal_sweep(config(p, p, realizations="all", verify_samples=1))
    assert [q for q, _ in result.errors] == [p], result.errors
    assert "disagrees" in result.errors[0][1]
    records = universal_sweep(config(p, p, realizations="all")).records
    assert oracle_mismatches(A, records)


@pytest.mark.parametrize("p", [17, 23, 29, 31, 41])
def test_representative_block_mutant_fails_verify_and_oracle(monkeypatch, p):
    # a wrong transport to a non-defining representative, two simple
    # columns' vectors swapped under their labels, gives every line of its
    # orbit wrong rows.  With seed 0 a draw at each of these primes lands in
    # such an orbit, on a character whose column was not swapped, so only a
    # verify that rebuilds the line apart from the representative's block
    # sees it
    import qcatlab.harness as harness

    reps = set(torus_orbits(build_hecke_torus(A, p))[0].tolist()) - {p}

    def mutant(fn, target, original=harness.transport):
        moved = original(fn, target)
        if int(line_index(*target.sigma, p)) in reps:
            i, j = np.flatnonzero(moved.multiplicities == 1)[:2]
            moved.vectors[:, [i, j]] = moved.vectors[:, [j, i]]
        return moved

    monkeypatch.setattr(harness, "transport", mutant)
    result = universal_sweep(config(p, p, realizations="all", verify_samples=1))
    assert [q for q, _ in result.errors] == [p], result.errors
    assert "disagrees" in result.errors[0][1]
    records = universal_sweep(config(p, p, realizations="all")).records
    assert oracle_mismatches(A, records)


def test_records_reject_a_sigma_off_the_enumeration():
    # sweep.csv rebuilds a row's tag from its line's enumerated sigma, which
    # for the line of (2, 0) is (1, 0)
    p = 7
    fn = transport(_defining_spectrum(p, A)[1], Realization.of(2, 0, p))
    with pytest.raises(ValueError, match="enumerated sigma"):
        supremum_records(fn, "inert")


def test_a_prime_form_holds_no_entry_per_line_and_column():
    # a form keeps its representatives' rows, three integers per line and
    # the tie points of its orbits, held until sweep.csv is written: at
    # p = 1009 an int64 per line and column alone would be 8.2 MB
    form, _ = _sweep_one_prime(1009, A, "all", 0, 0)

    def nbytes(value):
        if isinstance(value, tuple):
            return sum(map(nbytes, value))
        return value.nbytes

    assert form.size == 1010 * 1009
    assert sum(nbytes(getattr(form, f.name)) for f in dataclasses.fields(form)) < 2 ** 20


def test_sweep_parallel_matches_serial():
    # the whole table, object fields included, survives the process pool
    serial = universal_sweep(config(7, 13))
    parallel = universal_sweep(config(7, 13, jobs=2))
    assert parallel.records.dtype == RECORD_DTYPE
    assert serial.records.tolist() == parallel.records.tolist()


def test_records_norm_equal_across_realizations():
    # transported eigenfunctions keep norm^2 = p: the record builder enforces
    # it, so a full multi-realization sweep doubles as the check
    result = universal_sweep(config(13, 13, realizations="all"))
    assert len(set(result.records["realization"])) == 14
    by_char = {}
    for k, tag in zip(result.records["character"].tolist(), result.records["realization"]):
        by_char.setdefault(k, set()).add(tag)
    for char, tags in by_char.items():
        assert len(tags) == 14


# ---------------------------------------------------------------------------
# projector identity


@pytest.mark.parametrize("p", [7, 11, 13])
def test_projector_identity_direct_vs_projector(p, rng):
    torus = build_hecke_torus(A, p)
    spectrum = hecke_spectrum(torus, Realization.standard(p))
    simple = np.flatnonzero(spectrum.multiplicities() == 1)
    others = [Realization.of(1, 0, p), Realization.of(1, 2, p)]
    for _ in range(20):
        k = int(simple[rng.integers(len(simple))])
        fn = eigenfunction(spectrum, k)
        x = int(rng.integers(p))
        direct, proj = projector_identity_check(fn, x)
        assert abs(direct - proj) < 1e-8
        via = others[int(rng.integers(len(others)))]
        direct2, proj2 = projector_identity_check(fn, x, via=via)
        assert direct2 == direct
        assert abs(direct - proj2) < 1e-8  # model independence


def test_projector_identity_sums_to_p():
    p = 7
    torus = build_hecke_torus(A, p)
    spectrum = hecke_spectrum(torus, Realization.standard(p))
    k = int(np.flatnonzero(spectrum.multiplicities() == 1)[0])
    fn = eigenfunction(spectrum, k)
    direct_sum = sum(projector_identity_check(fn, x)[0] for x in range(p))
    proj_sum = sum(projector_identity_check(fn, x, via=Realization.of(1, 0, p))[1]
                   for x in range(p))
    assert abs(direct_sum - p) < 1e-8
    assert abs(proj_sum - p) < 1e-8


def test_point_masses_bounded_on_passing_records():
    result = universal_sweep(config(7, 7, realizations="all"))
    assert result.records["passed"].all()
    # a_max, as the CSV writes it
    assert (result.records["sup"] * result.records["sup"] <= 4.0 + 5e-9).all()


def test_observed_sup_envelopes():
    # the flat bound 2 holds at inert primes with room to spare
    # (sup <= 2*sqrt(p/(p+1)) < 2), while split primes stay under the
    # Salie-sum envelope 2*sqrt(p/(p-1)), which exceeds 2 by O(1/p)
    for p in (7, 13, 23):
        records = universal_sweep(config(p, p)).records
        sups = records["sup"][records["gating"]]
        bound = 2 * math.sqrt(p / (p + 1))
        assert (sups <= bound + 1e-9).all()
    for p in (11, 19, 29):
        records = universal_sweep(config(p, p)).records
        sups = records["sup"][records["gating"]]
        bound = 2 * math.sqrt(p / (p - 1))
        assert (sups <= bound + 1e-9).all()
        assert (sups > 2.0).any()  # the flat bound genuinely fails


# ---------------------------------------------------------------------------
# value distribution


def test_su2_reference_cdf_shape():
    s = np.linspace(0, 2, 101)
    cdf = su2_abs_trace_cdf(s)
    assert abs(cdf[0]) < 1e-12 and abs(cdf[-1] - 1.0) < 1e-12
    assert np.all(np.diff(cdf) >= 0)
    assert abs(su2_abs_trace_cdf(np.array([-1.0, 3.0]))[0]) < 1e-12
    assert abs(su2_abs_trace_cdf(np.array([3.0]))[0] - 1.0) < 1e-12


def test_su2_reference_moments_match_closed_forms():
    # the closed forms E|t| = 8/(3 pi), E t^2 = 1, E|t|^3 = 64/(15 pi) and
    # E t^4 = 2 (the second Catalan number) against quadrature of the law
    from scipy.integrate import quad

    for k in (1, 2, 3, 4):
        val, _ = quad(lambda t: np.abs(2.0 * np.cos(t)) ** k
                      * (2.0 / np.pi) * np.sin(t) ** 2, 0.0, np.pi)
        assert abs(su2_abs_trace_moment(k) - val) < 1e-10


def test_ks_distance_matches_scipy(rng):
    from scipy.stats import kstest

    from qcatlab.harness import _ks_distance

    samples = 2.0 * np.abs(np.cos(rng.uniform(0.0, np.pi, 5000)))
    expected = kstest(samples, su2_abs_trace_cdf).statistic
    assert _ks_distance(samples, su2_abs_trace_cdf) == expected


def test_value_distribution_small_inert_range():
    report = value_distribution(config(7, 13))
    assert report.primes == [7, 13]
    assert any(p == 11 and "split" in reason for p, reason in report.skipped)
    assert 0.0 <= report.ks_distance <= 1.0
    # p points per eigenfunction, one eigenfunction per simple character:
    # both inert primes here have p simple characters out of p + 1
    assert report.sample_count == 7 * 7 + 13 * 13
    assert abs(report.second_moment - 1.0) < 1e-9  # forced by the normalization
    assert sum(report.bin_counts) == report.sample_count


def test_value_distribution_rejects_split_only_range():
    with pytest.raises(ValueError):
        value_distribution(config(11, 11))


def test_value_distribution_names_every_failed_prime(monkeypatch):
    import qcatlab.harness as harness

    original = harness._distribution_one_prime
    tried = []

    def flaky(p, *rest):
        tried.append(p)
        if p == 11:
            raise RuntimeError("injected")
        return original(p, *rest)

    monkeypatch.setattr(harness, "_distribution_one_prime", flaky)
    # trace 5, discriminant 21: both 11 and 13 are inert for this map
    cfg = SweepConfig(matrix=CatMap(4, 1, 3, 1), prime_lo=11, prime_hi=13)
    with pytest.raises(RuntimeError, match="p=11: RuntimeError: injected"):
        value_distribution(cfg)
    assert tried == [11, 13]  # the crash did not stop the remaining primes


# ---------------------------------------------------------------------------
# artifacts


def test_csv_schema_and_determinism(tmp_path):
    cfg = config(7, 13)
    paths = []
    for name in ("a.csv", "b.csv"):
        result = universal_sweep(cfg)
        path = tmp_path / name
        write_records_csv(path, result.per_prime)
        paths.append(path)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    text = a.decode()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# schema: qcatlab-sweep")
    assert lines[1] == "p,kind,realization,character,multiplicity,sup,argmax,a_max,pass"
    assert len(lines) == 2 + len(universal_sweep(cfg).records)


def test_records_csv_peak_memory_is_one_chunk(tmp_path):
    # the writer holds one prime's record text and one line's rows and
    # argmax at a time (a 0.2 MB peak at 5..61, 0.4 MB at p = 401), so 1 kB
    # a chunk row bounds it, while a writer holding every row at once needs
    # about 300 B a table row, and one holding every line's argmax at once
    # peaks at 4.1 MB at p = 401
    bound = 1000 * CSV_CHUNK
    for lo, hi in ((5, 31), (401, 401), (5, 61)):
        result = universal_sweep(config(lo, hi, realizations="all"))
        records = result.records
        tracemalloc.start()
        try:
            write_records_csv(tmp_path / "sweep.csv", result.per_prime)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{lo}..{hi}: {len(records)} rows peaked at {peak} B"
    assert len(records) > 20 * CSV_CHUNK  # 20,930 rows at 5..61


def test_records_csv_frees_each_prime_before_the_next(tmp_path):
    # one prime's text goes before the next prime's is built, so writing
    # p = 89 and then 97 peaks no higher than the larger of writing either
    # alone: 89 (split, four slots) peaks at about 101 kB and 97 (inert,
    # two) at 72 kB, with a line's argmax derived as it is written.  A
    # writer holding 89's text while it builds 97's peaks at 135 kB; the
    # slack covers the interpreter's free lists (floats, tuples), about 7 kB
    # still counted as allocated after a form is freed
    forms = universal_sweep(config(89, 97, realizations="all")).per_prime
    assert [form.rows["p"][0, 0] for form in forms] == [89, 97]

    def peak(per_prime):
        tracemalloc.start()
        try:
            write_records_csv(tmp_path / "sweep.csv", per_prime)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(peak(forms[:1]), peak(forms[1:]))
    both = peak(forms)
    assert both <= alone + 16 * 1024, f"89 and 97: {both} B, the larger alone: {alone} B"


@pytest.mark.parametrize("matrix", [A, CatMap(3, 2, 1, 1)], ids=["2,1;1,1", "3,2;1,1"])
def test_records_csv_is_the_row_by_row_text(tmp_path, matrix):
    # each written line's head and each representative row's text formatted
    # once and joined with each row's argmax give the bytes of formatting
    # every row of the expanded table on its own: in the defining
    # realization, in all realizations with verify draws (degenerate rows,
    # and equal sups across characters on the fixed lines), and for no rows;
    # the rows go by (p, line, character), then basis vector
    results = [
        universal_sweep(SweepConfig(matrix=matrix, prime_lo=3, prime_hi=61)),
        universal_sweep(SweepConfig(matrix=matrix, prime_lo=5, prime_hi=31,
                                    realizations="all", verify_samples=1)),
        SweepResult([]),
    ]
    assert (results[1].records["multiplicity"] > 1).any()
    for result in results:
        path = tmp_path / "sweep.csv"
        write_records_csv(path, result.per_prime)
        assert path.read_text(encoding="utf-8") == records_csv_by_rows(result.records)
        keys = list(zip(*(result.records[name].tolist()
                          for name in ("p", "realization", "character"))))
        assert keys == sorted(keys)


def test_gating_failures_filter():
    result = universal_sweep(config(7, 7))
    assert gating_failures(result.per_prime) == 0
    result11 = universal_sweep(config(11, 11))
    records = result11.records
    failing = records[records["gating"] & ~records["passed"]]
    # the split prime 11 genuinely exceeds the flat bound at one character
    assert len(failing) and (failing["sup"] > 2.0).all()
    assert gating_failures(result11.per_prime) == len(failing)
    # in all realizations a representative's failing row counts once for
    # each line of its orbit
    result11 = universal_sweep(config(11, 11, realizations="all"))
    records = result11.records
    failing = np.count_nonzero(records["gating"] & ~records["passed"])
    rows = result11.per_prime[0].rows
    assert failing > np.count_nonzero(rows["gating"] & ~rows["passed"]) > 0
    assert gating_failures(result11.per_prime) == failing


def test_config_validation():
    with pytest.raises(ValueError):
        config(13, 7)
    with pytest.raises(ValueError):
        config(5, 7, realizations="some")
    with pytest.raises(ValueError):
        config(5, 7, jobs=0)
    with pytest.raises(ValueError):
        config(5, 7, verify_samples=-1)
    with pytest.raises(ValueError, match="seed"):
        config(5, 7, realizations="all", seed=-1, verify_samples=1)
    with pytest.raises(ValueError, match="need all realizations"):
        config(5, 7, verify_samples=1)  # the defining realization has no other
    with pytest.raises(ValueError):
        SweepConfig(matrix=CatMap(1, 1, 0, 1), prime_lo=5, prime_hi=7)
