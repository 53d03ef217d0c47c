"""SL2(F_p), the lines of the symplectic plane over F_p, and the commutant
torus of a hyperbolic integer matrix.

Conventions: omega(u, v) = u1*v2 - u2*v1 on F_p^2, the Heisenberg product is
(v, z)(v', z') = (v + v', z + z' + omega(v, v')/2), and SL2(F_p) acts on the
Heisenberg group by (v, z) -> (g v, z).  Vectors and Heisenberg elements are
plain integers, and a line is its sigma in line_sigmas order.  A CatMap is
hyperbolic by construction.  The torus's generator is the first element of
full order, found by its order as the search reads the norm-one pairs, and
all its powers come from one cached integer walk (torus_elements).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import half_mod, legendre_symbol, pow_mod

__all__ = [
    "SympMatrix",
    "CatMap",
    "HeckeTorus",
    "classify_prime",
    "build_hecke_torus",
    "torus_elements",
    "line_sigmas",
    "line_index",
]


@dataclass(frozen=True)
class SympMatrix:
    """Element of SL2(F_p); determinant 1 is enforced at construction."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) % self.p)
        det = (self.a * self.d - self.b * self.c) % self.p
        if det != 1:
            raise ValueError(f"determinant {det} != 1 mod {self.p}")

    @classmethod
    def identity(cls, p: int) -> "SympMatrix":
        return cls(1, 0, 0, 1, p)

    def __mul__(self, other: "SympMatrix") -> "SympMatrix":
        if other.p != self.p:
            raise ValueError(f"mismatched moduli: {self.p} vs {other.p}")
        entries = (self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)
        return SympMatrix(*_product(*entries, self.p), self.p)

    def inverse(self) -> "SympMatrix":
        return SympMatrix(self.d, -self.b, -self.c, self.a, self.p)

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        """g v for an integer pair v, reduced mod p."""
        v1, v2 = v
        return (self.a * v1 + self.b * v2) % self.p, (self.c * v1 + self.d * v2) % self.p

    def trace(self) -> int:
        return (self.a + self.d) % self.p


def line_sigmas(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The sigma of each line as two integer arrays: (1, m) for each slope
    m, then (0, 1).  Lines are numbered in this order throughout."""
    s1 = np.ones(p + 1, dtype=np.int64)
    s1[p] = 0
    s2 = np.arange(p + 1)
    s2[p] = 1
    return s1, s2


def line_index(v1, v2, p: int):
    """The position in line_sigmas(p) of the line through the nonzero
    vector (v1, v2), elementwise over integer arrays: the slope v2 / v1, or
    p on the line v1 = 0."""
    return np.where(v1 % p == 0, p, v2 * pow_mod(v1, p - 2, p) % p)


@dataclass(frozen=True)
class CatMap:
    """Hyperbolic element of SL2(Z): integer entries, det 1, |trace| > 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("cat map must have determinant 1 over Z")
        if abs(self.trace) <= 2:
            raise ValueError(f"cat map with trace {self.trace} is not hyperbolic")

    @classmethod
    def parse(cls, text: str) -> "CatMap":
        """Parse the input format "a,b;c,d"."""
        try:
            rows = text.split(";")
            (a, b), (c, d) = (tuple(int(t) for t in row.split(",")) for row in rows)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse matrix {text!r}; expected 'a,b;c,d'") from exc
        return cls(a, b, c, d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def discriminant(self) -> int:
        return self.trace ** 2 - 4

    def reduce(self, p: int) -> SympMatrix:
        return SympMatrix(self.a, self.b, self.c, self.d, p)


def classify_prime(A: CatMap, p: int) -> str:
    """Splitting type of trace(A)^2 - 4 mod p: "split", "inert" or "ramified"."""
    sym = legendre_symbol(A.discriminant, p)
    if sym == 0:
        return "ramified"
    return "split" if sym == 1 else "inert"


@dataclass(frozen=True)
class HeckeTorus:
    """The commutant of the reduced cat map in SL2(F_p), by its generator.

    For a non-ramified prime the commutant is {x*I + y*A : det = 1}, cyclic of
    order p - 1 (split) or p + 1 (inert).  Character k sends generator^j to
    exp(2 pi i k j / order), so the generator fixes every character label.
    """

    matrix: SympMatrix
    kind: str
    order: int
    generator: SympMatrix

    @property
    def p(self) -> int:
        return self.matrix.p


def _product(x: tuple, y: tuple, p: int) -> tuple:
    """Entries (a, b, c, d) of the product of two 2 x 2 matrices given by
    theirs, reduced mod p: ints, or int64 arrays elementwise for p < 2e9."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


@lru_cache(maxsize=2)
def torus_elements(torus: HeckeTorus) -> tuple[np.ndarray, ...]:
    """Entries (a, b, c, d) of generator^j for j in [0, N), each an (N,)
    read-only integer array: one cached walk of the generator, so every
    reader of the torus shares it, built by doubling: g^m times the powers
    below m gives those from m to 2m."""
    g, n = torus.generator, torus.order
    block = tuple(np.array([v], dtype=np.int64) for v in (1, 0, 0, 1))
    step = (g.a, g.b, g.c, g.d)
    while block[0].size < n:
        block = tuple(map(np.concatenate, zip(block, _product(step, block, g.p))))
        step = _product(step, step, g.p)
    entries = np.array(block)[:, :n]
    entries.setflags(write=False)
    return tuple(entries)


def _norm_one_pairs(t: int, p: int) -> tuple:
    """The number of (x, y) in F_p^2 with x^2 + t x y + y^2 = 1, and an
    iterator of them as int pairs, x-major with y ascending, that solves
    each x only when it is reached.

    For each x the y solve y^2 + t x y + x^2 - 1 = 0, so
    y = (-t x +- r) / 2 with r^2 = (t^2 - 4) x^2 + 4, r read from a table of
    square roots: two roots where that is a nonzero square, one where it is 0.
    """
    x = np.arange(p)
    root = np.full(p, -1)
    root[x * x % p] = x  # root[s] is a square root of s, or -1 for a non-square
    r = root[((t * t - 4) % p * (x * x % p) + 4) % p]
    count = 2 * np.count_nonzero(r > 0) + np.count_nonzero(r == 0)
    pairs = ((x0, y0) for x0, r0 in enumerate(map(int, r)) if r0 >= 0
             for y0 in sorted({half_mod(-t * x0 + r0, p), half_mod(-t * x0 - r0, p)}))
    return int(count), pairs


def _power(x: tuple, e: int, p: int) -> tuple:
    """Entries of x^e = (x^2)^(e // 2) x^(e % 2) for the entries x of a 2 x 2
    matrix: square-and-multiply, log2(e) levels deep."""
    half = _power(_product(x, x, p), e // 2, p) if e > 1 else (1, 0, 0, 1)
    return _product(half, x, p) if e % 2 else half


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n > 0, ascending, by trial division up to the
    square root of what is left, each prime divided out as it is found."""
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return factors + [n] * (n > 1)


def build_hecke_torus(A: CatMap, p: int) -> HeckeTorus:
    """The commutant torus of A mod p with its first element of full order.

    In the cyclic torus of order N, g generates exactly when g^(N/q) != I
    for every prime q dividing N.  Ramified primes are rejected: there the
    commutant of the reduction is not a torus and the whole eigenfunction
    setup does not apply.
    """
    kind = classify_prime(A, p)
    if kind == "ramified":
        raise ValueError(f"p = {p} is ramified for this cat map; no Hecke torus")
    Ap = A.reduce(p)
    # x*I + y*A has determinant x^2 + t*x*y + y^2; search its solutions x-major
    count, pairs = _norm_one_pairs(Ap.trace(), p)
    order = p - 1 if kind == "split" else p + 1
    if count != order:
        raise RuntimeError(f"commutant size {count} != {order} for {kind} p = {p}")
    factors = _prime_factors(order)
    for x0, y0 in pairs:  # the search usually stops at the first pair
        g = (x0 + y0 * Ap.a, y0 * Ap.b, y0 * Ap.c, x0 + y0 * Ap.d)
        if all(_power(g, order // q, p) != (1, 0, 0, 1) for q in factors):
            return HeckeTorus(Ap, kind, order, SympMatrix(*g, p))
    raise RuntimeError(f"no generator of order {order} found at p = {p}")
