"""Output checks and operation accounting for the sweep workloads.

Everything here is derived apart from the program: primes, splitting types,
the torus of the cat map and its orbits on lines come from this file's own
modular arithmetic, and the expected values come from properties the paper
proves (the multiplicity law of the Weil representation restricted to the
torus, the per-kind sup bounds, torus-orbit invariance, the closed-form
modulus at split primes).  Nothing is compared against a stored copy of an
earlier run.  Only the sampled spectral recomputation calls the program, and
it takes a route (an eigendecomposition of one Weil operator) that the sweep
itself does not use.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

MATRIX = (2, 1, 1, 1)  # the cat map a,b;c,d used by every workload
TOL = 1e-9

_SKIP = re.compile(r"^skip p=(\d+): (.*)$")


def is_odd_prime(n: int) -> bool:
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def legendre(a: int, p: int) -> int:
    """Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def prime_kind(p: int, matrix=MATRIX) -> str:
    a, _, _, d = matrix
    sym = legendre((a + d) ** 2 - 4, p)
    return {0: "ramified", 1: "split", -1: "inert"}[sym]


def sup_bound(kind: str, p: int) -> float:
    """2 at inert primes (the theorem); Weil's envelope 2/sqrt(1 - 1/p) at split ones."""
    return 2.0 if kind == "inert" else 2.0 / math.sqrt(1.0 - 1.0 / p)


@dataclass(frozen=True)
class Row:
    p: int
    kind: str
    realization: str
    character: int
    multiplicity: int
    sup: float
    argmax: int
    a_max: float
    passed: bool


def read_sweep_csv(path: Path) -> list[Row]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [
        Row(int(r["p"]), r["kind"], r["realization"], int(r["character"]),
            int(r["multiplicity"]), float(r["sup"]), int(r["argmax"]),
            float(r["a_max"]), r["pass"] == "true")
        for r in csv.DictReader(lines)
    ]


def read_skips(stdout: str) -> dict[int, list[str]]:
    skips: dict[int, list[str]] = {}
    for line in stdout.splitlines():
        m = _SKIP.match(line)
        if m:
            skips.setdefault(int(m.group(1)), []).append(m.group(2))
    return skips


def by_prime(rows: list[Row]) -> dict[int, list[Row]]:
    out: dict[int, list[Row]] = {}
    for r in rows:
        out.setdefault(r.p, []).append(r)
    return out


@dataclass
class Outcome:
    """Accounting of one round: attempted primes, failed primes with a reason each."""

    attempted: list[int]
    failed: dict[int, str] = field(default_factory=dict)

    @property
    def ok_primes(self) -> list[int]:
        return [p for p in self.attempted if p not in self.failed]


def account(lo: int, hi: int, rows: list[Row], skips: dict[int, list[str]],
            exit_code: int | None) -> Outcome:
    """One operation is one prime; ramified primes are not attempted.

    A prime fails when the sweep folded an exception into its skip reason,
    flagged one of its characters, left it out of the artifact, or wrote a
    gating record above its kind's bound.  `qcatlab sweep` exits 1 whenever a
    split record exceeds the flat 2; that exit counts as success when every
    gating failure is a split record within its envelope.  Any other exit
    (or none, when the process died) fails every prime of the round.
    """
    primes = [p for p in range(lo, hi + 1) if is_odd_prime(p)]
    out = Outcome([p for p in primes if prime_kind(p) != "ramified"])
    if exit_code not in (0, 1):
        out.failed = {p: f"round ended with exit code {exit_code}" for p in out.attempted}
        return out
    grouped = by_prime(rows)
    over = {r.p for r in rows
            if r.multiplicity == 1 and r.sup > sup_bound(prime_kind(r.p), r.p) + TOL}
    for p in out.attempted:
        reasons = skips.get(p, [])
        if any(s.startswith("failed:") for s in reasons):
            out.failed[p] = "exception: " + reasons[0]
        elif any("indeterminate" in s for s in reasons):
            out.failed[p] = "flagged character"
        elif p not in grouped:
            out.failed[p] = "missing from artifact"
        elif p in over:
            out.failed[p] = "gating record above its bound"
    gating_failures = any(r.multiplicity == 1 and not r.passed for r in rows)
    if exit_code == 1 and not gating_failures:
        out.failed = {p: "exit code 1 without a gating failure" for p in out.attempted}
    if exit_code == 0 and gating_failures:
        out.failed = {p: "exit code 0 despite a gating failure" for p in out.attempted}
    return out


# --- checks shared by the sweep workloads; each returns a list of error strings


def check_classification(rows: list[Row], skips: dict[int, list[str]], lo: int,
                         hi: int) -> list[str]:
    errors = [f"p={r.p}: kind {r.kind}, expected {prime_kind(r.p)}"
              for r in rows if r.kind != prime_kind(r.p)]
    for p in range(lo, hi + 1):
        if is_odd_prime(p) and prime_kind(p) == "ramified":
            if not any(s.startswith("ramified") for s in skips.get(p, [])):
                errors.append(f"p={p}: ramified prime not reported as a ramified skip")
    return errors


def check_multiplicities(p: int, rows: list[Row]) -> list[str]:
    """The Weil representation restricted to the torus: at a split prime all
    p - 1 characters occur and exactly one twice; at an inert prime exactly
    one of the p + 1 characters is absent and the rest occur once."""
    kind = prime_kind(p)
    order = p - 1 if kind == "split" else p + 1
    counts: dict[int, int] = {}
    declared: dict[int, set[int]] = {}
    for r in rows:
        if not 0 <= r.character < order:
            return [f"p={p}: character {r.character} outside [0, {order})"]
        counts[r.character] = counts.get(r.character, 0) + 1
        declared.setdefault(r.character, set()).add(r.multiplicity)
    errors = [f"p={p}: character {k} has {c} rows but multiplicity {sorted(declared[k])}"
              for k, c in counts.items() if declared[k] != {c}]
    mults = sorted(counts.get(k, 0) for k in range(order))
    expected = [1] * (p - 2) + [2] if kind == "split" else [0] + [1] * p
    if mults != expected:
        errors.append(f"p={p} ({kind}): multiplicity multiset breaks the torus law")
    return errors


def check_bounds(rows: list[Row]) -> list[str]:
    """Every multiplicity-one record within its kind's bound; both kinds seen."""
    simple = [r for r in rows if r.multiplicity == 1]
    errors = [f"p={r.p} {r.realization} character {r.character}: sup {r.sup!r} above "
              f"the {prime_kind(r.p)} bound {sup_bound(prime_kind(r.p), r.p)!r}"
              for r in simple if r.sup > sup_bound(prime_kind(r.p), r.p) + TOL]
    for kind in ("inert", "split"):
        if not any(prime_kind(r.p) == kind for r in simple):
            errors.append(f"no multiplicity-one {kind} records to check")
    return errors


def _half_unit(x: float) -> float:
    """Half a unit in the 12th significant digit: the rounding of `%.12g`."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def check_a_max(rows: list[Row]) -> list[str]:
    """a_max equals sup squared to the precision both are printed with."""
    errors = []
    for r in rows:
        h = _half_unit(r.sup)
        tol = (2.0 * r.sup + h) * h + _half_unit(r.a_max) + 1e-15
        if abs(r.a_max - r.sup ** 2) > tol:
            errors.append(f"p={r.p} character {r.character}: a_max {r.a_max!r} "
                          f"!= sup^2 {r.sup ** 2!r}")
    return errors


# --- the torus of the cat map acting on lines of F_p^2


def torus_elements(p: int, matrix=MATRIX) -> list[tuple[int, int, int, int]]:
    """All x*I + y*A with determinant 1 mod p, as (a, b, c, d)."""
    a, b, c, d = matrix
    out = []
    for x in range(p):
        for y in range(p):
            g = ((x + y * a) % p, (y * b) % p, (y * c) % p, (x + y * d) % p)
            if (g[0] * g[3] - g[1] * g[2]) % p == 1:
                out.append(g)
    return out


def line_of(v1: int, v2: int, p: int) -> int:
    """Lines of F_p^2 as 0..p-1 (slope of (1, m)) and p for the line of (0, 1)."""
    v1, v2 = v1 % p, v2 % p
    if v1 == 0:
        return p
    return (v2 * pow(v1, -1, p)) % p


def line_of_tag(tag: str, p: int) -> int:
    s1, s2 = (int(t) for t in tag.split(":"))
    return line_of(s1, s2, p)


def torus_orbits(p: int, matrix=MATRIX) -> list[frozenset[int]]:
    reps = [(1, m) for m in range(p)] + [(0, 1)]
    elements = torus_elements(p, matrix)
    orbits = {frozenset(line_of(g[0] * v1 + g[1] * v2, g[2] * v1 + g[3] * v2, p)
                        for g in elements) for v1, v2 in reps}
    return sorted(orbits, key=min)


def check_realizations(p: int, rows: list[Row]) -> list[str]:
    """p + 1 distinct realizations, one per line, with p rows each."""
    per_tag: dict[str, int] = {}
    for r in rows:
        per_tag[r.realization] = per_tag.get(r.realization, 0) + 1
    errors = [f"p={p}: realization {t} has {n} rows, expected {p}"
              for t, n in per_tag.items() if n != p]
    lines = {line_of_tag(t, p) for t in per_tag}
    if len(per_tag) != p + 1 or len(lines) != p + 1:
        errors.append(f"p={p}: {len(per_tag)} realizations on {len(lines)} lines, "
                      f"expected {p + 1}")
    return errors


def check_orbit_invariance(p: int, rows: list[Row]) -> list[str]:
    """A multiplicity-one character's sup is the same on every line of a torus orbit."""
    orbit_of = {line: i for i, orbit in enumerate(torus_orbits(p)) for line in orbit}
    values: dict[tuple[int, int], list[float]] = {}
    for r in rows:
        if r.multiplicity == 1:
            key = (r.character, orbit_of[line_of_tag(r.realization, p)])
            values.setdefault(key, []).append(r.sup)
    return [f"p={p} character {k} orbit {o}: sup spread {max(v) - min(v):.3g}"
            for (k, o), v in sorted(values.items()) if max(v) - min(v) > TOL]


def check_split_fixed_lines(p: int, rows: list[Row]) -> list[str]:
    """On the two torus-fixed lines of a split prime every multiplicity-one
    eigenfunction is the closed form, of constant modulus sqrt(p/(p-1)) off 0."""
    fixed = [o for o in torus_orbits(p) if len(o) == 1]
    if prime_kind(p) != "split":
        return [f"p={p}: inert torus fixes a line"] if fixed else []
    if len(fixed) != 2:
        return [f"p={p}: split torus fixes {len(fixed)} lines, expected 2"]
    lines = set().union(*fixed)
    target = math.sqrt(p / (p - 1))
    seen = [r for r in rows
            if r.multiplicity == 1 and line_of_tag(r.realization, p) in lines]
    errors = [f"p={p} {r.realization} character {r.character}: sup {r.sup!r} != {target!r}"
              for r in seen if abs(r.sup - target) > TOL]
    if not seen:
        errors.append(f"p={p}: no multiplicity-one records on the fixed lines")
    return errors


def spectral_samples(rows: list[Row], primes: list[int], seed: int, n: int) -> list[Row]:
    """A seeded sample of multiplicity-one (prime, character) records."""
    grouped = by_prime(rows)
    pool = [r for p in primes for r in grouped.get(p, []) if r.multiplicity == 1]
    return random.Random(seed).sample(pool, min(n, len(pool)))


def check_spectral_sample(sample: list[Row]) -> list[str]:
    """Recompute each sampled sup from an eigendecomposition of the Weil
    operator of the torus generator; the sweep goes through projectors."""
    import numpy as np

    from qcatlab.groups import CatMap, build_hecke_torus
    from qcatlab.models import Realization, weil_op

    errors = []
    for r in sample:
        torus = build_hecke_torus(CatMap(*MATRIX), r.p)
        w, vecs = np.linalg.eig(weil_op(Realization.standard(r.p), torus.generator).matrix)
        target = np.exp(2j * np.pi * r.character / torus.order)
        dist = np.abs(w - target)
        if int(np.sum(dist < 1e-6)) != 1:
            errors.append(f"p={r.p} character {r.character}: eigenvalue is not simple")
            continue
        v = vecs[:, int(np.argmin(dist))]
        sup = float(np.max(np.abs(v)) * math.sqrt(r.p) / np.linalg.norm(v))
        if abs(sup - r.sup) > TOL:
            errors.append(f"p={r.p} character {r.character}: eigendecomposition gives "
                          f"sup {sup!r}, CSV has {r.sup!r}")
    return errors


def check_defining(rows: list[Row], skips: dict[int, list[str]], lo: int, hi: int,
                   primes: list[int], seed: int, samples: int) -> list[str]:
    """All checks of the defining-realization sweep, on the primes that did not fail."""
    grouped = by_prime(rows)
    kept = [r for p in primes for r in grouped[p]]
    errors = check_classification(kept, skips, lo, hi)
    for p in primes:
        if len(grouped[p]) != p or {r.realization for r in grouped[p]} != {"0:1"}:
            errors.append(f"p={p}: expected p rows in the defining realization 0:1")
        errors += check_multiplicities(p, grouped[p])
    errors += check_bounds(kept)
    errors += check_a_max(kept)
    errors += check_spectral_sample(spectral_samples(rows, primes, seed, samples))
    return errors


def check_all_realizations(rows: list[Row], skips: dict[int, list[str]], lo: int,
                           hi: int, primes: list[int]) -> list[str]:
    """All checks of the all-realizations sweep, on the primes that did not fail."""
    grouped = by_prime(rows)
    kept = [r for p in primes for r in grouped[p]]
    errors = check_classification(kept, skips, lo, hi)
    for p in primes:
        errors += check_realizations(p, grouped[p])
        per_tag: dict[str, list[Row]] = {}
        for r in grouped[p]:
            per_tag.setdefault(r.realization, []).append(r)
        for tag_rows in per_tag.values():
            errors += check_multiplicities(p, tag_rows)
        errors += check_orbit_invariance(p, grouped[p])
        errors += check_split_fixed_lines(p, grouped[p])
    errors += check_bounds(kept)
    errors += check_a_max(kept)
    return errors
