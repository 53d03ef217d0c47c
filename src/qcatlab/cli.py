"""Command line driver: classify | spectrum | sweep | distribution | selftest.

Artifacts land in --out (or $QCATLAB_OUT, or the working directory); the
same config and seed always produce byte-identical files.  Bad input is a
usage error (exit 2), found before any prime runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .arith import primes_in
from .groups import CatMap, build_hecke_torus, classify_prime
from .hecke import hecke_spectrum
from .harness import (
    SweepConfig,
    gating_failures,
    universal_sweep,
    value_distribution,
    write_csv_rows,
    write_records_csv,
)
from .models import Realization


def _cat_map(text: str) -> CatMap:
    try:
        return CatMap.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _prime_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an inclusive range 'lo..hi' or a single prime") from None
    if not primes_in(lo, hi):
        raise argparse.ArgumentTypeError(f"{text!r} holds no odd prime")
    return lo, hi


def _odd_prime(text: str) -> int:
    p = int(text) if text.isdigit() else 0
    if primes_in(p, p) != [p]:
        raise argparse.ArgumentTypeError(f"{text!r} is not an odd prime")
    return p


def _jobs(text: str) -> int:
    n = int(text) if text.isdigit() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _count(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _vector(text: str) -> tuple[int, int]:
    try:
        s1, s2 = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a vector 's1,s2'") from None
    return s1, s2


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("QCATLAB_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


MATRIX_HELP = "cat map entries 'a,b;c,d'; write a negative a as --matrix=-3,1;-1,0"


def _add_common(sub, primes_default: str):
    sub.add_argument("--matrix", type=_cat_map, required=True, help=MATRIX_HELP)
    sub.add_argument("--primes", type=_prime_range, default=primes_default,
                     help="inclusive range 'lo..hi', or a single prime")


def cmd_classify(args) -> int:
    for p in primes_in(*args.primes):
        print(f"{p}\t{classify_prime(args.matrix, p)}")
    return 0


def cmd_sweep(args) -> int:
    lo, hi = args.primes
    try:
        cfg = SweepConfig(matrix=args.matrix, prime_lo=lo, prime_hi=hi,
                          realizations=args.realizations, seed=args.seed, jobs=args.jobs,
                          verify_samples=args.verify_samples)
    except ValueError as exc:
        print(f"qcatlab sweep: error: {exc}", file=sys.stderr)
        return 2
    result = universal_sweep(cfg)
    path = _out_dir(args) / "sweep.csv"
    write_records_csv(path, result.per_prime)
    for p, reason in result.skips:
        print(f"skip p={p}: {reason}")
    for p, message in result.errors:
        print(f"error p={p}: {message}")
    for form in result.per_prime:  # every slot is written, so its rows hold the max
        p = int(form.rows["p"][0, 0])
        print(f"p={p} kind={form.rows['kind'][0, 0]} records={form.size} "
              f"max_sup={form.rows['sup'].max():.6f} p^(3/8)={p ** 0.375:.6f}")
    failures = gating_failures(result.per_prime)
    print(f"wrote {path} ({sum(form.size for form in result.per_prime)} records, "
          f"{failures} gating failures)")
    return 3 if result.errors else 1 if failures else 0  # a crash outranks a failed bound


def cmd_spectrum(args) -> int:
    p = args.prime
    s1, s2 = args.realization
    if s1 % p == 0 and s2 % p == 0:
        print(f"qcatlab spectrum: error: --realization {s1},{s2} is zero mod {p}",
              file=sys.stderr)
        return 2
    kind = classify_prime(args.matrix, p)
    if kind == "ramified":
        print(f"p={p} is ramified; no spectrum", file=sys.stderr)
        return 1
    torus = build_hecke_torus(args.matrix, p)
    spectrum = hecke_spectrum(torus, Realization.of(s1, s2, p))
    path = _out_dir(args) / f"spectrum_p{p}.csv"
    fn = spectrum.eigenfunctions
    # column by column, 12 decimals: noise like -6e-33 rounds to 0, + 0.0 drops its sign
    values = np.round(fn.vectors.T.ravel(), 12) + 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,kind,character_index,multiplicity,x,re,im\n")
        write_csv_rows(fh, f"{p},{kind},%d,%d,%d,%.12f,%.12f\n",
                       [np.repeat(fn.characters, p), np.repeat(fn.multiplicities, p),
                        np.tile(np.arange(p), p), values.real, values.imag])
    for k, (m, flagged) in enumerate(zip(spectrum.multiplicities().tolist(),
                                         spectrum.flagged.tolist())):
        print(f"character {k}: multiplicity {m}{' (flagged)' if flagged else ''}")
    print(f"wrote {path} (torus order {torus.order}, kind {kind})")
    return 0


def cmd_distribution(args) -> int:
    lo, hi = args.primes
    if all(classify_prime(args.matrix, p) != "inert" for p in primes_in(lo, hi)):
        print(f"qcatlab distribution: error: no inert prime in {lo}..{hi}",
              file=sys.stderr)
        return 2
    cfg = SweepConfig(matrix=args.matrix, prime_lo=lo, prime_hi=hi, jobs=args.jobs)
    report = value_distribution(cfg)
    out = _out_dir(args)
    with open(out / "distribution.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    edges = np.array(report.bin_edges)
    with open(out / "histogram.csv", "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count\n")
        write_csv_rows(fh, "%.12g,%.12g,%d\n", [edges[:-1], edges[1:], np.array(report.bin_counts)])
    print(f"primes: {report.primes}")
    print(f"samples: {report.sample_count}")
    print(f"KS distance to SU(2) |trace| law: {report.ks_distance:.4f}")
    print(f"second moment: {report.second_moment:.4f} "
          f"(reference {report.reference_second_moment:.4f})")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    ok = selftest.run(prime=args.prime, seed=args.seed)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcatlab",
        description="eigenfunctions of quantized cat maps over prime fields",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("classify", help="splitting type per prime")
    _add_common(s, primes_default="5..61")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("sweep", help="supremum bound sweep")
    _add_common(s, primes_default="5..61")
    s.add_argument("--out", default=None, help="output directory")
    s.add_argument("--jobs", type=_jobs, default=1)
    s.add_argument("--seed", type=_count, default=0)
    s.add_argument("--realizations", choices=["defining", "all"], default="defining")
    s.add_argument("--verify-samples", type=_count, default=0)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("spectrum", help="character decomposition at one prime")
    s.add_argument("--matrix", type=_cat_map, required=True, help=MATRIX_HELP)
    s.add_argument("--prime", type=_odd_prime, required=True)
    s.add_argument("--realization", type=_vector, default=(0, 1),
                   help="sigma as 's1,s2' (default 0,1, the position model); "
                        "write a negative s1 as --realization=-1,2")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_spectrum)

    s = sub.add_parser("distribution", help="value statistics at inert primes")
    _add_common(s, primes_default="101..199")
    s.add_argument("--out", default=None, help="output directory")
    s.add_argument("--jobs", type=_jobs, default=1)
    s.set_defaults(func=cmd_distribution)

    s = sub.add_parser("selftest", help="quick end-to-end checks")
    s.add_argument("--prime", type=_odd_prime, default=7)
    s.add_argument("--seed", type=_count, default=0)
    s.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
