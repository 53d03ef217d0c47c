"""Experiments: prime sweeps for the sup-norm bound and
value-distribution statistics.

Every eigenfunction is normalized to squared norm p.  A record's `pass`
flag and the gating decision record the flat bound sup_x |amplitude(x)| <= 2
in every realization; that bound is the theorem at inert primes.  At split primes
the flat bound is exceeded by O(1/p), up to the proven envelope
2/sqrt(1 - 1/p) (Weil's bound on the Salie sums the explicit split
eigenfunctions produce), so split records above 2 fail `pass` by design.
Both sweeps run per prime through `_map_primes`, where a prime that raises is
an error, never a skip.  Each prime's defining spectrum is one labelled
eigenbasis (a p x p block whose columns carry their torus character); both
sweeps keep the columns of unflagged characters, and the value distribution
samples the simple ones.  In all realizations a sweep moves that block once
per torus orbit of lines, to the orbit's representative (none for the
defining line's orbit), and scores it there in one pass, which also finds
the points where each column ties its maximum; every line of the orbit takes
those rows, its argmax the least tie point over its dilation
(hecke.torus_orbits); the defining sweep is its line's one-line orbit.  A
verify draw transports the defining block straight to its line and holds
that line's rows against it.  A prime's records keep one form (PrimeRecords)
of O(p) entries until sweep.csv, whose bytes depend only on the config, is
written from it a line at a time, by (p, line, character, basis vector),
a line's argmax derived when that line is written, each line's head and each
representative row's text formatted once; the table of every row is built
only on request.
"""

from __future__ import annotations

import logging
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .arith import pow_mod, primes_in
from .groups import CatMap, classify_prime, build_hecke_torus, line_sigmas
from .hecke import (
    HeckeEigenfunction,
    hecke_spectrum,
    projector_column,
    torus_orbits,
    transport,
)
from .models import Realization

__all__ = [
    "SweepConfig",
    "RECORD_DTYPE",
    "PrimeRecords",
    "SweepResult",
    "DistributionReport",
    "supremum_records",
    "universal_sweep",
    "value_distribution",
    "su2_abs_trace_cdf",
    "su2_abs_trace_moment",
    "write_csv_rows",
    "write_records_csv",
    "gating_failures",
    "SWEEP_SCHEMA",
]

log = logging.getLogger("qcatlab")

SWEEP_SCHEMA = "qcatlab-sweep v1"
SUP_BOUND = 2.0
# a sup carries rounding of about 1e-16 sqrt(p) (two solvers agree to 1e-13 for
# p <= 199), far below 1e-9, while the worst inert sup, 2 sqrt(p / (p + 1)),
# stays 1 / p below the bound, more than 1e-9 for p < 1e9
SUP_TOL = 1e-9
# |norm^2 - p| / p is rounding of the rescaling to norm^2 = p: at most about
# 1e-16 p (2.3e-15 at p = 401), while a mis-scaled column misses by order 1
NORM_TOL = 1e-6
# |v(x)|^2 <= 4p/(p-1) carries ~1e-15 of rounding, so gaps below 1e-9 are ties
ARGMAX_TIE_TOL = 1e-9
GATING_MIN_PRIME = 5  # p = 3 is reported but never gates
HISTOGRAM_BINS = 40  # equal-width bins of the value distribution's histogram
CSV_CHUNK = 1024  # rows a CSV writer formats at once: about 0.3 MB of CSV text objects
# fields in sweep.csv column order (a_max is written as sup * sup); realization
# is the line's index in groups.line_sigmas order, written as its sigma's tag;
# kind is an object, one shared str per block: a fixed-width str field would
# widen every row
RECORD_DTYPE = np.dtype([("p", np.int64), ("kind", object), ("realization", np.int64),
                         ("character", np.int64), ("multiplicity", np.int64),
                         ("sup", np.float64), ("argmax", np.int64),
                         ("passed", np.bool_), ("gating", np.bool_)])
_NO_RECORDS = np.empty(0, dtype=RECORD_DTYPE)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; prime ranges are inclusive."""

    matrix: CatMap
    prime_lo: int
    prime_hi: int
    realizations: str = "defining"  # or "all"
    seed: int = 0
    jobs: int = 1
    verify_samples: int = 0  # per-prime re-extraction cross-checks

    def __post_init__(self):
        if self.prime_lo > self.prime_hi:
            raise ValueError("empty prime range")
        if self.realizations not in ("defining", "all"):
            raise ValueError(f"unknown realization policy {self.realizations!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.verify_samples < 0:
            raise ValueError(f"verify_samples must be at least 0, got {self.verify_samples}")
        if self.verify_samples and self.realizations != "all":
            raise ValueError("verify samples need all realizations to re-extract in")

    def primes(self) -> list[int]:
        return primes_in(self.prime_lo, self.prime_hi)


@dataclass(frozen=True)
class PrimeRecords:
    """One prime's records until they are written: rows[s] is the
    supremum_records table of the block scored at representative slot s, and
    line lines[i] is written with the rows of slot slot[i] (every slot is some
    line's), its own index as realization and argmax(i) as argmax: the
    least x / e over the slot's tie points x, for the line's dilation e
    (hecke.torus_orbits), ties[s] = (x, first) holding column c's from
    x[first[c]] on (a one-line orbit keeps only its least).  The rows are
    written line by line, each line's in column order; columns go by
    nondecreasing character (hecke.HeckeSpectrum), so the rows go by (p,
    line, character, basis vector)."""

    rows: np.ndarray  # (slots, n) RECORD_DTYPE
    lines: np.ndarray  # (L,) line indices in groups.line_sigmas order, increasing
    slot: np.ndarray  # (L,)
    inverse: np.ndarray  # (L,) each line's 1 / e mod p: 1 on a representative
    ties: tuple  # (slots,) of (x, first)

    @property
    def size(self) -> int:  # the rows written: one per line and column
        return self.slot.size * self.rows.shape[1]

    def argmax(self, i: int) -> np.ndarray:
        """The argmax of the line at position i, one per column: the one
        reader of the tie points."""
        p, (x, first) = int(self.rows["p"][0, 0]), self.ties[self.slot[i]]
        return np.minimum.reduceat(x * int(self.inverse[i]) % p, first)

    def table(self) -> np.ndarray:
        """The written rows as one RECORD_DTYPE table, in sweep.csv order."""
        records = self.rows[self.slot].reshape(-1)
        records["realization"] = np.repeat(self.lines, self.rows.shape[1])
        records["argmax"] = np.concatenate([self.argmax(i) for i in range(self.slot.size)])
        return records


@dataclass
class SweepResult:
    per_prime: list[PrimeRecords]  # in prime order, one per prime with rows
    skips: list[tuple[int, str]] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)  # (p, "Type: message")

    @cached_property
    def records(self) -> np.ndarray:
        """Every written row as one RECORD_DTYPE table, in sweep.csv order."""
        # the empty table keeps the dtype when every prime is ramified or raised
        return np.concatenate([_NO_RECORDS, *(form.table() for form in self.per_prime)])


def supremum_records(fn: HeckeEigenfunction, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The record table of a block, one RECORD_DTYPE row per column in column
    order, all rows sharing one `kind` and the index of the block's line, and
    its ties: ties[x, c] where column c's squared modulus ties its maximum.
    Raises ValueError for a block whose sigma is not its line's enumerated
    sigma, whose tag sweep.csv could not rebuild from that index."""
    p = fn.p
    s1, s2 = line_sigmas(p)
    sigma = fn.realization.sigma
    line = np.flatnonzero((s1 == sigma[0]) & (s2 == sigma[1]))
    if not line.size:
        raise ValueError(f"realization {fn.realization.tag()} is not its line's "
                         f"enumerated sigma")
    mags = np.abs(fn.vectors)
    mags_sq = mags * mags
    norms_sq = mags_sq.sum(axis=0)
    ok = np.abs(norms_sq - p) <= NORM_TOL * p  # false for a NaN norm too
    if not ok.all():
        raise ValueError(f"eigenfunction norm^2 = {norms_sq[~ok][0]}, expected {p}")
    sups = mags.max(axis=0)
    ties = mags_sq >= sups * sups - ARGMAX_TIE_TOL
    records = np.empty(sups.size, dtype=RECORD_DTYPE)
    records["p"] = p
    records["kind"] = kind
    records["realization"] = line[0]
    records["character"] = fn.characters
    records["multiplicity"] = fn.multiplicities
    records["sup"] = sups
    # -I is in the torus, so |v(x)| = |v(-x)| ties the maximum: take the least x
    records["argmax"] = ties.argmax(axis=0)
    records["passed"] = sups <= SUP_BOUND + SUP_TOL
    records["gating"] = (records["multiplicity"] == 1) & (p >= GATING_MIN_PRIME)
    return records, ties


def ProcessPoolExecutor(max_workers: int):
    """The process pool, imported (with multiprocessing) only when started."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _map_primes(fn, primes: list[int], jobs: int, *args):
    """Run fn(p, *args) for each prime; returns (results, errors), prime-ordered
    lists of (p, value) and of (p, "Type: message") for the primes that raised.
    Serial in this process for one job or one prime, else a pool of at most
    one worker per prime, since the pool starts all its workers up front.
    The per-prime work is FFTs and elementwise numpy, with no matrix product,
    so neither the result nor its cost depends on the BLAS thread count."""
    serial = jobs == 1 or len(primes) < 2
    results, errors = [], []
    pool = nullcontext() if serial else ProcessPoolExecutor(max_workers=min(jobs, len(primes)))
    with pool:
        calls = [partial(fn, p, *args) if serial else pool.submit(fn, p, *args).result
                 for p in primes]
        for p, call in zip(primes, calls):
            try:
                results.append((p, call()))
            except Exception as exc:  # noqa: BLE001 - one prime must not hide the rest
                log.exception("p = %d failed", p)
                errors.append((p, f"{type(exc).__name__}: {exc}"))
    return results, errors


def _defining_spectrum(p: int, A: CatMap):
    """The torus spectrum at p in the defining realization and the block of
    its kept eigenfunctions.  A flagged character is not an eigenspace, so its
    columns are left out with a skip naming it."""
    spectrum = hecke_spectrum(build_hecke_torus(A, p), Realization.standard(p))
    flagged = spectrum.flagged
    skips = [(p, f"character {k} indeterminate "
                 f"(basis fails the eigenvector equation); excluded")
             for k in np.flatnonzero(flagged).tolist()]
    block = spectrum.eigenfunctions
    # no reader writes into a block, so an unflagged spectrum is kept as it is
    return spectrum, block.columns(~flagged[block.characters]) if skips else block, skips


def _sweep_one_prime(p: int, A: CatMap, realizations: str, verify_samples: int,
                     seed: int) -> tuple[PrimeRecords | None, list[tuple[int, str]]]:
    kind = classify_prime(A, p)
    if kind == "ramified":
        return None, [(p, "ramified prime skipped: p divides trace^2 - 4")]
    spectrum, fn, skips = _defining_spectrum(p, A)
    if realizations == "defining":  # the defining line (0, 1): a one-line orbit
        line = np.array([p])
        return _orbit_records(fn, line, (line, np.ones(1, dtype=np.int64)), kind), skips
    orbits = torus_orbits(spectrum.torus)
    form = _orbit_records(fn, np.arange(p + 1), orbits, kind)
    _verify_lines(fn, spectrum.torus, form, _verify_draws(fn, orbits, verify_samples, seed))
    return form, skips


def _orbit_records(fn: HeckeEigenfunction, lines: np.ndarray, orbits,
                   kind: str) -> PrimeRecords:
    """The records of `lines`, each with its representative and dilation in
    orbits = (rep, dilation) (hecke.torus_orbits), one slot per orbit: each
    representative scores the block moved there (fn itself on fn's line)
    once, keeping its tie points, and every line of its orbit takes them."""
    p, cols = fn.p, np.arange(fn.characters.size)
    rep, dilation = orbits
    s1, s2 = line_sigmas(p)
    reps, slot = np.unique(rep, return_inverse=True)
    scored, ties = [], []
    for r, size in zip(reps.tolist(), np.bincount(slot).tolist()):
        source = Realization.of(int(s1[r]), int(s2[r]), p)
        records, tied = supremum_records(fn if source == fn.realization
                                         else transport(fn, source), kind)
        scored.append(records)
        # the tie points, column by column; a fixed line of a split prime,
        # alone in its orbit, ties at about p points a column and keeps one
        col, x = np.nonzero(tied.T) if size > 1 else (cols, records["argmax"].copy())
        ties.append((x, np.flatnonzero(np.diff(col, prepend=-1))))
    return PrimeRecords(np.stack(scored), lines, slot, pow_mod(dilation, p - 2, p), tuple(ties))


def _verify_draws(fn: HeckeEigenfunction, orbits, n_samples: int,
                  seed: int) -> list[tuple[int, int]]:
    """The (line, character) pairs that _verify_lines checks: per sample a
    line that is not its orbit's representative and a simple character,
    drawn from a generator seeded by (seed, p).

    A line whose dilation has e^2 = +-1 cannot tell e from its inverse:
    there e^-1 = +-e, and every modulus is even in x since -I is in the
    torus.  A draw that lands on one also checks the first line whose
    dilation can, with the same character.
    """
    p = fn.p
    rep, dilation = orbits
    others = np.flatnonzero(rep != np.arange(rep.size))
    simple = fn.characters[fn.multiplicities == 1]
    if not n_samples or not others.size or not simple.size:
        return []
    # the standard library's generator, seeded by a string (hashed with
    # SHA-512, so stable across runs): numpy.random's import alone costs
    # about 6 MB of resident memory, more than the draws are worth
    rng = random.Random(f"verify {seed} {p}")
    square = dilation * dilation % p
    blind = (square == 1) | (square == p - 1)
    sighted = others[~blind[others]]
    draws = []
    for _ in range(n_samples):
        l = int(others[rng.randrange(others.size)])
        k = int(simple[rng.randrange(simple.size)])
        draws.append((l, k))
        if blind[l] and sighted.size:
            draws.append((int(sighted[0]), k))
    return draws


def _verify_lines(fn: HeckeEigenfunction, torus, form: PrimeRecords, draws) -> None:
    """Rebuild the drawn lines apart from their orbits and re-extract one
    character there directly.

    For each (line l, character k) of draws, the defining block fn goes to
    l with one hecke.transport, sharing nothing with the representative's
    block but fn.  Every row the form writes for l, in column order, must
    carry its column's character and give the moved column's sup and
    argmax, and one projector column of l's model at k's argmax must be
    k's moved vector up to a global phase.
    """
    p = fn.p
    s1, s2 = line_sigmas(p)
    for l, k in draws:
        target = Realization.of(int(s1[l]), int(s2[l]), p)
        moved = transport(fn, target)
        # the form writes every line, line l at position l
        rows, argmax = form.rows[form.slot[l]], form.argmax(l)
        recs = supremum_records(moved, rows[0]["kind"])[0]
        bad = np.flatnonzero((rows["character"] != moved.characters)
                             | (argmax != recs["argmax"])
                             | ~(np.abs(rows["sup"] - recs["sup"]) <= SUP_TOL))
        if bad.size:
            i = int(bad[0])
            raise RuntimeError(
                f"derived row disagrees with its transport: p={p} "
                f"k={moved.characters[i]} realization={target.tag()} "
                f"row=({rows[i]['character']}, {rows[i]['sup']:.12g}, {argmax[i]}) "
                f"moved=({recs[i]['sup']:.12g}, {recs[i]['argmax']})")
        (i,) = np.flatnonzero(moved.characters == k)
        direct = projector_column(torus, target, k, int(recs[i]["argmax"]))
        direct *= np.sqrt(p) / np.linalg.norm(direct)
        vector = moved.vectors[:, i]
        overlap = np.vdot(direct, vector)
        dev = np.max(np.abs(vector - overlap / abs(overlap) * direct))
        # rounding stays below 7e-14 (four draws a prime for p <= 199 with
        # either map, 7.1e-15 at p = 1009 with eight), far under 1e-7; a
        # wrong image misses by >= sqrt(2)
        if not dev <= 1e-7:
            raise RuntimeError(
                f"transported eigenfunction disagrees with re-extraction: "
                f"p={p} k={k} realization={target.tag()} dev={dev:.3g}"
            )


def universal_sweep(cfg: SweepConfig) -> SweepResult:
    """Run the supremum sweep over all non-ramified primes in the range.

    A prime that raises is returned in `errors` and does not suppress the
    others; records are merged in prime order regardless of worker scheduling.
    """
    results, errors = _map_primes(_sweep_one_prime, cfg.primes(), cfg.jobs,
                                  cfg.matrix, cfg.realizations,
                                  cfg.verify_samples, cfg.seed)
    per_prime = [form for _, (form, _) in results if form is not None and form.size]
    skips = [skip for _, (_, prime_skips) in results for skip in prime_skips]
    for sp, reason in skips:
        log.info("p = %d: %s", sp, reason)
    return SweepResult(per_prime, skips, errors)


def gating_failures(per_prime: list[PrimeRecords]) -> int:
    """How many written rows gate and fail the flat bound: a representative
    row counts once per written line of its slot."""
    return sum(int(np.bincount(form.slot) @ (form.rows["gating"] & ~form.rows["passed"]).sum(1))
               for form in per_prime)


def su2_abs_trace_cdf(s: np.ndarray) -> np.ndarray:
    """CDF of |2 cos theta| with theta drawn from (2/pi) sin^2 theta dtheta."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 2.0)
    a = np.arccos(s / 2.0)
    return (np.pi - 2.0 * a + np.sin(2.0 * a)) / np.pi


def su2_abs_trace_moment(k: int) -> float:
    """k-th absolute moment of the SU(2) trace, k in 1..4, in closed form."""
    return {1: 8 / (3 * np.pi), 2: 1.0, 3: 64 / (15 * np.pi), 4: 2.0}[k]


def _ks_distance(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of the samples against cdf."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - f).max()
    d_minus = (f - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


@dataclass
class DistributionReport:
    primes: list[int]
    skipped: list[tuple[int, str]]
    sample_count: int
    ks_distance: float
    moments: list[float]
    reference_moments: list[float]
    second_moment: float
    reference_second_moment: float
    bin_edges: list[float]
    bin_counts: list[int]


def _distribution_one_prime(p: int, A: CatMap):
    _, fn, skips = _defining_spectrum(p, A)
    return np.abs(fn.vectors[:, fn.multiplicities == 1]).ravel(order="F"), skips


def value_distribution(cfg: SweepConfig) -> DistributionReport:
    """Aggregate |amplitude| over all points, multiplicity-one characters and
    inert primes in the range, and compare with the SU(2) trace law.

    Split primes, whose values are Salie sums and follow another law (README,
    "The sup-norm bound at split primes"), are rejected from the sample
    (logged), as are flagged characters; an empty inert range is a usage
    error.  If any prime raises, one RuntimeError names them all.
    """
    inert, skipped = [], []
    for p in cfg.primes():
        kind = classify_prime(cfg.matrix, p)
        if kind == "inert":
            inert.append(p)
        else:
            skipped.append((p, f"{kind} prime rejected: inert statistics only"))
    if not inert:
        raise ValueError("no inert primes in range; nothing to sample")
    results, errors = _map_primes(_distribution_one_prime, inert, cfg.jobs,
                                  cfg.matrix)
    if errors:
        raise RuntimeError("value distribution failed at "
                           + "; ".join(f"p={p}: {msg}" for p, msg in errors))
    for _, (_, flagged) in results:
        skipped.extend(flagged)
    skipped.sort(key=lambda s: s[0])
    for p, reason in skipped:
        log.info("p = %d: %s", p, reason)
    samples = np.concatenate([values for _, (values, _) in results])
    ks = _ks_distance(samples, su2_abs_trace_cdf)
    moments = [float(np.mean(samples ** k)) for k in (1, 2, 3, 4)]
    reference = [su2_abs_trace_moment(k) for k in (1, 2, 3, 4)]
    counts, edges = np.histogram(samples, bins=HISTOGRAM_BINS,
                                 range=(0.0, max(2.0, float(samples.max()))))
    return DistributionReport(
        primes=inert,
        skipped=skipped,
        sample_count=int(samples.size),
        ks_distance=ks,
        moments=moments,
        reference_moments=reference,
        second_moment=moments[1],
        reference_second_moment=reference[1],
        bin_edges=[float(e) for e in edges],
        bin_counts=[int(c) for c in counts],
    )


def write_csv_rows(fh, fmt: str, columns) -> None:
    """Write fmt % row for each row of the equal-length 1-D arrays in columns,
    CSV_CHUNK rows at a time, so only one chunk's Python objects are alive."""
    for lo in range(0, len(columns[0]), CSV_CHUNK):
        fh.write("".join(map(fmt.__mod__, zip(*(c[lo:lo + CSV_CHUNK].tolist() for c in columns)))))


def write_records_csv(path, per_prime: list[PrimeRecords]) -> None:
    """sweep.csv: the header, then the rows of each prime's form, a line
    at a time in groups.line_sigmas order, each line's rows in column order
    (character, then basis vector).  A row joins its line's head
    p,kind,s1:s2, (formatted once per line), its slot's text
    character,multiplicity,sup, and ,a_max,pass (once per representative
    row, sup and a_max = sup * sup by %.12g) and its argmax, derived for
    its line when that line is written."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema: {SWEEP_SCHEMA}\n")
        fh.write("p,kind,realization,character,multiplicity,sup,argmax,a_max,pass\n")
        for form in per_prime:
            _write_form(fh, form)


def _write_form(fh, form: PrimeRecords) -> None:
    """One prime's rows of sweep.csv, line by line, each line's columns in
    order; one line's argmax and text are alive at once, the prime's text
    freed before the next's."""
    rows = form.rows
    p, kind = int(rows["p"][0, 0]), rows["kind"][0, 0]
    s1, s2 = line_sigmas(p)
    sups = rows["sup"].tolist()
    record = [["%d,%d,%.12g," % key for key in zip(*fields)] for fields in zip(
        rows["character"].tolist(), rows["multiplicity"].tolist(), sups)]
    verdict = [[",%.12g,%s\n" % (sup * sup, "true" if ok else "false")
                for sup, ok in zip(*fields)]
               for fields in zip(sups, rows["passed"].tolist())]
    points = [str(x) for x in range(p)]  # argmax is a point x of [0, p)
    for i, (a, b, s) in enumerate(zip(s1[form.lines].tolist(), s2[form.lines].tolist(),
                                      form.slot.tolist())):
        fh.write("".join(map("".join, zip(
            repeat("%d,%s,%d:%d," % (p, kind, a, b)), record[s],
            map(points.__getitem__, form.argmax(i).tolist()), verdict[s]))))
