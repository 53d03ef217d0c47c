"""One round in a fresh interpreter: import the qcatlab CLI, run it, report.

    python3 child.py RESULT_JSON [--trace SPANS_CSV] [--import-only] -- CLI_ARGS...

The parent puts the checkout's `src` on PYTHONPATH and passes the monotonic
clock reading taken just before it started this process in BENCH_T0, so the
set-up time covers interpreter start-up and the import.  Nothing is imported
ahead of the CLI module except what the timing itself needs.
"""

import os
import resource
import sys
import time

import qcatlab.cli as cli

IMPORTED = time.monotonic()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    import json

    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    report = {"setup_s": IMPORTED - float(os.environ["BENCH_T0"])}
    if "--import-only" not in opts:
        run = cli.main
        tracer = None
        if spans_path:
            from tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.span(ROOT, cli.main)
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        try:
            report["exit_code"] = run(cli_args)
        except Exception as exc:  # noqa: BLE001 - the parent counts the round as failed
            import traceback

            traceback.print_exc()
            report["exit_code"] = None
            report["error"] = f"{type(exc).__name__}: {exc}"
        report["wall_s"] = time.monotonic() - t0
        report["cpu_s"] = _cpu_s() - cpu0
        rss_kb = max(resource.getrusage(w).ru_maxrss
                     for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        report["peak_rss_mb"] = rss_kb / 1024.0
        report["environment"] = _environment()
        if tracer:
            report["trace"] = tracer.summary()
            tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
