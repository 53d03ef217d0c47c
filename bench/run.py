"""Benchmark of the qcatlab eigenfunction pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round runs one `qcatlab` command in a
fresh interpreter (bench/child.py) with the checkout's `src` on PYTHONPATH;
rounds repeat while another one is expected to end within S seconds, and at
least one runs.  The seed goes to the command's --seed and picks the sampled
spectral checks.  After the timed rounds the artifacts are checked against
properties derived apart from the program (bench/checks.py), and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 one more
round runs with spans around the layers' public functions (bench/tracer.py)
and the metrics are the per-layer ones.  BLAS and OpenMP thread variables are
passed through as found and recorded in the report; none is set here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import PER_PRIME, ROOT, TRACED

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
MATRIX_ARG = "{},{};{},{}".format(*checks.MATRIX)
SETUP_SAMPLES = 5  # interpreter start-ups per run; setup_s is their median
SPECTRAL_SAMPLES = 8  # (prime, character) pairs recomputed by eigendecomposition
DEADLINE_S = 165.0  # a child still running this long after the start is killed


@dataclass(frozen=True)
class Workload:
    lo: int
    hi: int
    realizations: str  # "defining" or "all"

    def cli_args(self, seed: int, out: Path) -> list[str]:
        args = ["sweep", "--matrix", MATRIX_ARG, "--primes", f"{self.lo}..{self.hi}",
                "--realizations", self.realizations, "--jobs", "1"]
        if self.realizations == "all":
            args += ["--verify-samples", "1"]
        return args + ["--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    # the spectral decomposition dominates; transport does no work
    "defining-sweep": Workload(5, 199, "defining"),
    # transport between the p + 1 realizations dominates (one intertwiner
    # per character and realization), with one re-extraction per prime
    "all-realizations-sweep": Workload(5, 97, "all"),
}

PER_LAYER = [
    "groups.build_hecke_torus_s", "groups.build_hecke_torus_calls",
    "models.weil_op_s", "models.weil_op_calls",
    "models.canonical_intertwiner_s", "models.canonical_intertwiner_calls",
    "models.raw_averaging_s", "models.raw_averaging_calls",
    "models.averaging_scale_s",
    "hecke.hecke_spectrum_s", "hecke.hecke_spectrum_calls",
    *(f"{PER_PRIME[0]}.p{p}_s" for p in PER_PRIME[1]),
    "hecke.eigenfunction_s", "hecke.eigenfunction_calls",
    "hecke.transport_s", "hecke.transport_calls",
    "harness.universal_sweep_s",
    "harness.supremum_records_s", "harness.records",
    "harness.write_s", "harness.artifact_bytes",
    "cli.self_s",
    "trace.wall_s", "trace.overhead_s", "trace.unaccounted_s",
]


def run_child(name: str, out: Path, started: float, cli_args: list[str] | None = None,
              traced: bool = False) -> tuple[dict | None, str]:
    """Run bench/child.py in a fresh interpreter; its report and its stdout."""
    result = out / f"{name}.json"
    opts = [str(result)]
    if traced:
        opts += ["--trace", str(out / f"{name}.spans.csv")]
    if cli_args is None:
        opts.append("--import-only")
    cmd = [sys.executable, str(BENCH / "child.py"), *opts, "--", *(cli_args or [])]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CHECKOUT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    stdout_path = out / f"{name}.stdout"
    with open(stdout_path, "w") as so, open(out / f"{name}.stderr", "w") as se:
        env["BENCH_T0"] = repr(time.monotonic())
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=CHECKOUT)
        try:
            proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    report = json.loads(result.read_text()) if result.exists() else None
    return report, stdout_path.read_text()


@dataclass
class Round:
    name: str
    report: dict | None
    outcome: checks.Outcome
    errors: list[str]
    rows: int
    artifact_bytes: int


def run_round(name: str, wl: Workload, seed: int, out: Path, started: float,
              traced: bool = False) -> Round:
    round_out = out / name
    round_out.mkdir()
    report, stdout = run_child(name, out, started, wl.cli_args(seed, round_out), traced)
    csv_path = round_out / "sweep.csv"
    rows = checks.read_sweep_csv(csv_path) if csv_path.exists() else []
    skips = checks.read_skips(stdout)
    exit_code = report.get("exit_code") if report else None
    outcome = checks.account(wl.lo, wl.hi, rows, skips, exit_code)
    if report is None or "error" in report:
        errors = []  # every prime of the round already counts as failed
    elif wl.realizations == "all":
        errors = checks.check_all_realizations(rows, skips, wl.lo, wl.hi, outcome.ok_primes)
    else:
        errors = checks.check_defining(rows, skips, wl.lo, wl.hi, outcome.ok_primes,
                                       seed, SPECTRAL_SAMPLES)
    size = csv_path.stat().st_size if csv_path.exists() else 0
    return Round(name, report, outcome, errors, len(rows), size)


def layer_metrics(traced: Round, untraced_wall: float) -> dict[str, tuple[float, str]]:
    summary = traced.report["trace"]
    self_s, calls = summary["self_s"], summary["calls"]
    wall = traced.report["wall_s"]
    m: dict[str, tuple[float, str]] = {}
    for layer, fname in TRACED:
        key = f"{layer}.{fname}"
        m[f"{key}_s"] = (self_s.get(key, 0.0), "s")
        m[f"{key}_calls"] = (calls.get(key, 0), "count")
    for p, seconds in summary["per_prime_s"].items():
        m[f"{PER_PRIME[0]}.p{p}_s"] = (seconds, "s")
    m["harness.write_s"] = m["harness.write_records_csv_s"]
    m["harness.artifact_bytes"] = (traced.artifact_bytes, "bytes")
    m["harness.records"] = (traced.rows, "count")
    m["cli.self_s"] = (self_s.get(ROOT, 0.0), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["trace.unaccounted_s"] = (wall - sum(self_s.values()), "s")
    return {name: m[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (CHECKOUT / "src" / "qcatlab" / "cli.py").is_file():
        print(f"no qcatlab sources under {CHECKOUT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))  # the spectral check calls the program
    wl = WORKLOADS[args.workload]
    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    rounds: list[Round] = []
    while True:
        rounds.append(run_round(f"round{len(rounds)}", wl, args.seed, out, started))
        elapsed = time.monotonic() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    setup = [r.report["setup_s"] for r in rounds if r.report]
    for i in range(SETUP_SAMPLES - len(setup)):
        report, _ = run_child(f"import{i}", out, started)
        if report:
            setup.append(report["setup_s"])
    completed = [r.report for r in rounds if r.report and "error" not in r.report]
    if not completed or not setup:
        print("no round completed; see " + str(out), file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in completed)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in completed), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in completed), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    if args.trace:
        traced = run_round("traced", wl, args.seed, out, started, traced=True)
        rounds.append(traced)
        if not traced.report or "trace" not in traced.report:
            print("the traced round did not complete", file=sys.stderr)
            return 1
        metrics = layer_metrics(traced, wall)

    attempted = sum(len(r.outcome.attempted) for r in rounds)
    failed = sum(len(r.outcome.failed) for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    environment = completed[0]["environment"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "environment": environment,
        "attempted": attempted, "failed": failed,
        "failures": {r.name: r.outcome.failed for r in rounds if r.outcome.failed},
        "check_errors": errors, "setup_samples": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} primes attempted, {failed} failed")
    for p_reason in report["failures"].values():
        for p, reason in sorted(p_reason.items())[:5]:
            print(f"failed p={p}: {reason}")
    print(f"output checks: {'pass' if not errors else f'{len(errors)} errors'}")
    for e in errors[:20]:
        print(f"check error: {e}")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v} {u}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
