import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcatlab
from qcatlab.cli import main
from qcatlab.groups import CatMap, build_hecke_torus
from qcatlab.harness import SweepConfig, universal_sweep
from qcatlab.hecke import hecke_spectrum
from qcatlab.models import Realization


def run_cli(args):
    return main(args)


def fresh_env(**extra):
    """The environment, plus extra, for a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(qcatlab.__file__).parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_commands_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI and running a
    # transporting sweep, a spectrum and the selftest loads no scipy module
    code = f"""
import contextlib, io, sys
from qcatlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["sweep", "--matrix", "2,1;1,1", "--primes", "5..13",
                   "--realizations", "all", "--verify-samples", "1",
                   "--out", {str(tmp_path)!r}]),
             main(["spectrum", "--matrix", "2,1;1,1", "--prime", "11",
                   "--out", {str(tmp_path)!r}]),
             main(["selftest", "--prime", "11"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=fresh_env()).stdout
    # the sweep range holds the split prime 11, so it exits 1 (README)
    assert out.strip() == "[1, 0, 0] []"


def test_classify_table(capsys):
    assert run_cli(["classify", "--matrix", "2,1;1,1", "--primes", "5..13"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    table = dict(line.split("\t") for line in out)
    assert table == {"5": "ramified", "7": "inert", "11": "split", "13": "inert"}


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--matrix", "2,1;1,1", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["sweep", "--characters", "simple"],
    ["classify", "--out", "x"],
    ["classify", "--seed", "1"],
    ["classify", "--jobs", "2"],
    ["distribution", "--seed", "1"],
    ["spectrum", "--prime", "7", "--seed", "1"],
    ["sweep", "--format", "json"],
    ["spectrum", "--prime", "7", "--dump-operators"],
    ["distribution", "--bins", "10"],
])
def test_flags_that_nothing_read_are_gone(args):
    with pytest.raises(SystemExit) as exc:
        run_cli([args[0], "--matrix", "2,1;1,1", *args[1:]])
    assert exc.value.code == 2


def test_primes_is_a_range_or_one_prime(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "7,13"])
    assert exc.value.code == 2
    assert "'lo..hi'" in capsys.readouterr().err
    assert run_cli(["classify", "--matrix", "2,1;1,1", "--primes", "13"]) == 0
    assert capsys.readouterr().out == "13\tinert\n"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_sweep_inert_range_exit_zero(tmp_path, capsys):
    code = run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "7..7",
                    "--realizations", "all", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# schema:")
    assert len(lines) == 2 + 56  # header lines + one row per record
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.startswith("p=7 ")]
    assert line.startswith("p=7 kind=inert records=56 max_sup=")
    assert line.endswith(" p^(3/8)=2.074492")


def test_sweep_split_prime_reports_gating_failure(tmp_path):
    # the flat bound genuinely fails at the split prime 11, so the exit
    # code surfaces a gating failure
    code = run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "11..11",
                    "--out", str(tmp_path)])
    assert code == 1
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[2:]
    assert any(row.endswith(",false") for row in rows)


def test_sweep_deterministic_bytes(tmp_path):
    # reruns, --jobs 2 and fresh interpreters with BLAS on one or two threads
    # write the same bytes, the multiplicity-two rows of the split primes 11,
    # 19, 29 and 31 included
    args = ["sweep", "--matrix", "2,1;1,1", "--primes", "5..31", "--realizations", "all",
            "--verify-samples", "1", "--seed", "42"]
    outs = [tmp_path / name for name in ("r1", "r2", "jobs2")]
    for out, jobs in zip(outs, ("1", "1", "2")):
        run_cli(args + ["--jobs", jobs, "--out", str(out)])
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        # the split primes fail the flat bound, so the sweep exits 1 (README)
        assert subprocess.run([sys.executable, "-m", "qcatlab.cli", *args, "--out", str(out)],
                              capture_output=True,
                              env=fresh_env(OPENBLAS_NUM_THREADS=threads)).returncode == 1
        outs.append(out)
    first = (outs[0] / "sweep.csv").read_bytes()
    assert "2" in [row.split(",")[4] for row in first.decode().splitlines()[2:]]
    assert all((out / "sweep.csv").read_bytes() == first for out in outs[1:])


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("args", [
    ["--primes", "5..31"],
    ["--primes", "5..13", "--realizations", "all", "--verify-samples", "1"],
], ids=["defining", "all-verify"])
def test_sweep_writes_from_the_per_prime_forms(tmp_path, monkeypatch, capsys, args, jobs):
    # sweep.csv, the summary and the gating count come from each prime's
    # record form: with the expansion into one table made to raise, the CLI
    # writes the same bytes and exits the same way
    import qcatlab.harness as harness

    def refuse(form):
        raise AssertionError("the sweep expanded its records into one table")

    runs = []
    for name in ("expandable", "refused"):
        out = tmp_path / name
        code = run_cli(["sweep", "--matrix", "2,1;1,1", *args, "--jobs", jobs,
                        "--out", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        runs.append((code, stdout, (out / "sweep.csv").read_bytes()))
        monkeypatch.setattr(harness.PrimeRecords, "table", refuse)
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and "records, " in runs[0][1]


def test_sweep_crashed_primes_exit_3(tmp_path, monkeypatch, capsys):
    import qcatlab.harness as harness

    original = harness._sweep_one_prime

    def crash_at(bad):
        def flaky(p, *rest):
            if p in bad:
                raise RuntimeError("injected")
            return original(p, *rest)
        return flaky

    args = ["sweep", "--matrix", "2,1;1,1", "--primes", "5..13", "--out", str(tmp_path)]
    monkeypatch.setattr(harness, "_sweep_one_prime", crash_at({5, 7, 11, 13}))
    assert run_cli(args) == 3
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("error ")] == [
        f"error p={p}: RuntimeError: injected" for p in (5, 7, 11, 13)]
    assert "skip " not in out
    # a crash outranks the split prime 11's gating failure, and the primes
    # that succeeded are still written
    monkeypatch.setattr(harness, "_sweep_one_prime", crash_at({7}))
    assert run_cli(args) == 3
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[2:]
    assert {int(row.split(",")[0]) for row in rows} == {11, 13}


def test_sweep_spectrum_failure_is_an_error_not_a_skip(tmp_path, monkeypatch, capsys):
    # projector traces off the integers make the engine raise: exit 3
    import qcatlab.hecke as hecke

    def scaled(*args, original=hecke.weil_chirps):
        chirps = original(*args)
        return chirps._replace(coef=0.9 * chirps.coef)
    monkeypatch.setattr(hecke, "weil_chirps", scaled)
    assert run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "7..11",
                    "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    errors = [l for l in out.splitlines() if l.startswith("error ")]
    assert [l.split(":")[0] for l in errors] == ["error p=7", "error p=11"]
    assert all("traces miss the integers" in l for l in errors)
    assert "skip " not in out


def test_sweep_workers_bounded_by_primes(tmp_path, monkeypatch):
    # a pool starts all of its workers up front, so --jobs far above the
    # number of primes must not reach it; this executor starts no process
    from concurrent.futures import Future

    import qcatlab.harness as harness

    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
    assert run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "5..7",
                    "--jobs", "4000", "--out", str(tmp_path)]) == 0
    assert sizes == [2]


def test_sweep_ramified_logged(tmp_path, capsys):
    run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "5..7", "--out", str(tmp_path)])
    assert "skip p=5" in capsys.readouterr().out


def test_spectrum_writes_eigenfunctions(tmp_path, capsys):
    code = run_cli(["spectrum", "--matrix", "2,1;1,1", "--prime", "7",
                    "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "spectrum_p7.csv").read_text().strip().split("\n")
    assert lines[0] == "p,kind,character_index,multiplicity,x,re,im"
    assert len(lines) == 1 + 7 * 7
    out = capsys.readouterr().out
    assert "multiplicity 0" in out  # the empty character is reported
    # p rows per column, x running over the points; every nonempty character
    # is simple at p = 7, so the first row is the first simple character's
    spectrum = hecke_spectrum(build_hecke_torus(CatMap(2, 1, 1, 1), 7), Realization.standard(7))
    k = int(np.flatnonzero(spectrum.multiplicities() == 1)[0])
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][:5] == ["7", "inert", str(k), "1", "0"]
    assert [r[4] for r in rows] == [str(x) for x in range(7)] * 7
    # re and im are written to 12 decimals, each rounded from the
    # spectrum's amplitude (within 5e-13, and float rounding)
    values = spectrum.eigenfunctions.vectors.T.ravel()
    written = np.array([[float(x) for x in r[5:]] for r in rows])
    assert all(len(x.partition(".")[2]) == 12 for r in rows for x in r[5:])
    assert np.abs(written[:, 0] - values.real).max() < 6e-13
    assert np.abs(written[:, 1] - values.imag).max() < 6e-13


@pytest.mark.parametrize("matrix", ["2,1;1,1", "3,2;1,1"])
def test_spectrum_values_have_no_exponent_and_no_negative_zero(tmp_path, matrix):
    # rounding noise in an amplitude, such as an imaginary part of -6e-33,
    # is written as a plain 0 at fixed decimals, never as 1e-16 or -0
    assert run_cli(["spectrum", "--matrix", matrix, "--prime", "13",
                    "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum_p13.csv").read_text().splitlines()[1:]
    fields = [x for line in lines for x in line.split(",")[5:]]
    assert len(fields) == 2 * 13 * 13
    assert not [x for x in fields if "e" in x.lower() or float(x) == 0 and x.startswith("-")]
    assert "0.000000000000" in fields


def test_sweep_csv_row_format(tmp_path):
    # p = 11 is split for this map, so the sweep exits 1; of its torus's 10
    # characters, 5 is 2-dimensional and writes two rows in each realization
    assert run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "11..11",
                    "--realizations", "all", "--out", str(tmp_path)]) == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[:2] == ["# schema: qcatlab-sweep v1",
                         "p,kind,realization,character,multiplicity,sup,argmax,a_max,pass"]
    rows = [line.split(",") for line in lines[2:]]
    # per realization, then character, then basis vector: each of the 12
    # lines writes its 11 rows in character order, character 5's two adjacent
    tags = [f"1:{m}" for m in range(11)] + ["0:1"]
    assert [r[:5] for r in rows] == [
        ["11", "split", tag, str(k), "2" if k == 5 else "1"]
        for tag in tags for k in range(10) for _ in range(2 if k == 5 else 1)]

    def not_floats(r):
        return r[:5] + r[6:7] + r[8:]

    assert not_floats(rows[0]) == ["11", "split", "1:0", "0", "1", "5", "true"]
    first5 = 5
    assert [not_floats(r) for r in rows[first5:first5 + 2]] == [
        ["11", "split", "1:0", "5", "2", "1", "true"],
        ["11", "split", "1:0", "5", "2", "2", "true"]]
    assert [not_floats(r) for r in rows[first5 + 3 * 11:first5 + 3 * 11 + 2]] == [
        ["11", "split", "1:3", "5", "2", "0", "true"],
        ["11", "split", "1:3", "5", "2", "0", "false"]]
    # the floats are the record table's, to 12 significant digits
    records = universal_sweep(SweepConfig(matrix=CatMap(2, 1, 1, 1), prime_lo=11,
                                          prime_hi=11, realizations="all")).records
    sups = records["sup"].tolist()
    assert [r[5] for r in rows] == [format(x, ".12g") for x in sups]
    assert [r[7] for r in rows] == [format(x * x, ".12g") for x in sups]
    assert [r[6] for r in rows] == [str(x) for x in records["argmax"].tolist()]
    assert [r[8] for r in rows] == ["true" if b else "false"
                                    for b in records["passed"].tolist()]
    assert {r[8] for r in rows} == {"true", "false"}


def test_sweep_of_ramified_primes_writes_the_header(tmp_path, capsys):
    # 5 is ramified for this map: no record, no error, exit 0
    assert run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "5..5",
                    "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines() == [
        "# schema: qcatlab-sweep v1",
        "p,kind,realization,character,multiplicity,sup,argmax,a_max,pass"]
    assert "(0 records, 0 gating failures)" in capsys.readouterr().out


def test_spectrum_ramified_prime_fails(tmp_path):
    assert run_cli(["spectrum", "--matrix", "2,1;1,1", "--prime", "5",
                    "--out", str(tmp_path)]) == 1


def test_spectrum_custom_realization(tmp_path):
    assert run_cli(["spectrum", "--matrix", "2,1;1,1", "--prime", "7",
                    "--realization", "1,3", "--out", str(tmp_path)]) == 0


def test_spectrum_negative_realization_with_equals(tmp_path):
    # "--realization -1,2" reads as a flag; the "=" form passes the value
    for name, args in (("neg", ["--realization=-1,2"]), ("pos", ["--realization", "6,2"])):
        assert run_cli(["spectrum", "--matrix", "2,1;1,1", "--prime", "7", *args,
                        "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "neg" / "spectrum_p7.csv").read_bytes()
            == (tmp_path / "pos" / "spectrum_p7.csv").read_bytes())


def test_negative_matrix_entry_with_equals(tmp_path):
    # "--matrix -3,1;-1,0" reads as a flag; the "=" form passes the value
    try:
        code = run_cli(["sweep", "--matrix=-3,1;-1,0", "--primes", "7..13",
                        "--out", str(tmp_path)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1)
    assert (tmp_path / "sweep.csv").exists()


def test_distribution_writes_report(tmp_path, capsys):
    code = run_cli(["distribution", "--matrix", "2,1;1,1", "--primes", "7..13",
                    "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "distribution.json").read_text())
    assert report["primes"] == [7, 13]
    assert 0 <= report["ks_distance"] <= 1
    hist = (tmp_path / "histogram.csv").read_text().strip().split("\n")
    assert hist[0] == "bin_left,bin_right,count"
    assert "KS distance" in capsys.readouterr().out


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QCATLAB_OUT", str(tmp_path / "envout"))
    run_cli(["sweep", "--matrix", "2,1;1,1", "--primes", "7..7"])
    assert (tmp_path / "envout" / "sweep.csv").exists()


def test_selftest_passes(capsys):
    # p = 11 is split: its largest sup, 2.059491, is above 2 and under the envelope
    for prime, bound in (("7", "flat bound 2 = 2.000000"),
                         ("11", "split envelope 2/sqrt(1 - 1/p) = 2.097618")):
        assert run_cli(["selftest", "--prime", prime]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        (line,) = [l for l in out.splitlines() if "supremum bound" in l]
        assert line.startswith("PASS") and line.endswith(bound)


@pytest.mark.parametrize("prime", [7, 11])
def test_selftest_fails_a_sup_above_its_bound_or_a_flagged_character(prime, monkeypatch,
                                                                    capsys):
    import qcatlab.selftest as selftest

    original = selftest.hecke_spectrum
    bound = 2.0 if prime == 7 else 2.0 / (1 - 1 / prime) ** 0.5

    def pushed(torus, r):
        # one simple column rescaled so its sup sits 1e-6 above its kind's bound
        spectrum = original(torus, r)
        fn = spectrum.eigenfunctions
        j = int(np.flatnonzero(fn.multiplicities == 1)[0])
        fn.vectors[:, j] *= (bound + 1e-6) / np.abs(fn.vectors[:, j]).max()
        return spectrum

    monkeypatch.setattr(selftest, "hecke_spectrum", pushed)
    assert run_cli(["selftest", "--prime", str(prime)]) == 1
    assert "FAIL  supremum bound" in capsys.readouterr().out

    def flagged(torus, r):
        spectrum = original(torus, r)
        spectrum.residuals[spectrum.eigenfunctions.characters[0]] = 1.0
        return spectrum

    monkeypatch.setattr(selftest, "hecke_spectrum", flagged)
    assert run_cli(["selftest", "--prime", str(prime)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l for l in out if l.startswith("FAIL")] == [
        "FAIL  character 0  flagged: basis fails the eigenvector equation"]


def test_selftest_non_prime_is_a_usage_error(capsys):
    # selftest takes no --out, so it sits outside test_bad_input_is_a_usage_error
    with pytest.raises(SystemExit) as exc:
        run_cli(["selftest", "--prime", "9"])
    assert exc.value.code == 2
    assert "not an odd prime" in capsys.readouterr().err


def test_selftest_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["selftest", "--seed", "-1"])
    assert exc.value.code == 2
    assert "not a non-negative integer" in capsys.readouterr().err


def test_bad_matrix_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["classify", "--matrix", "2,1;1,2", "--primes", "5..7"])
    assert exc.value.code == 2
    assert "determinant 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["sweep", "--matrix", "2,1;1"], "cannot parse"),
    (["sweep", "--matrix", "1,1;0,1"], "not hyperbolic"),
    (["sweep", "--primes", "13..7"], "no odd prime"),
    (["sweep", "--primes", "24..28"], "no odd prime"),
    (["sweep", "--primes", "8"], "no odd prime"),
    (["spectrum", "--prime", "9"], "not an odd prime"),
    (["sweep", "--primes", "7", "--jobs", "0"], "not a positive integer"),
    (["distribution", "--primes", "11", "--jobs", "0"], "not a positive integer"),
    (["distribution", "--primes", "11..11"], "no inert prime"),
    (["sweep", "--primes", "7", "--realizations", "all", "--verify-samples", "-3"],
     "not a non-negative integer"),
    (["sweep", "--primes", "7..13", "--realizations", "all", "--verify-samples", "1",
      "--seed", "-1"], "not a non-negative integer"),
    (["sweep", "--primes", "7..13", "--verify-samples", "1"], "need all realizations"),
    (["spectrum", "--prime", "7", "--realization", "1"], "not a vector"),
    (["spectrum", "--prime", "7", "--realization", "a,b"], "not a vector"),
    (["spectrum", "--prime", "7", "--realization", "0,0"], "zero mod 7"),
    (["spectrum", "--prime", "7", "--realization", "7,14"], "zero mod 7"),
], ids=["unparsed-matrix", "not-hyperbolic", "reversed-range",
        "range-without-prime", "one-non-prime", "spectrum-non-prime", "sweep-jobs-0",
        "distribution-jobs-0", "no-inert-prime", "negative-verify-samples", "negative-seed",
        "verify-samples-defining-only",
        "realization-one-entry", "realization-not-integers", "realization-zero",
        "realization-zero-mod-p"])
def test_bad_input_is_a_usage_error(args, message, tmp_path, capsys):
    # a determinant other than 1 is test_bad_matrix_rejected
    argv = [args[0], *(["--matrix", "2,1;1,1"] if "--matrix" not in args else []),
            *args[1:], "--out", str(tmp_path)]
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # nothing was computed or written
