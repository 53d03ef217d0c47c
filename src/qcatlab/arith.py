"""Exact arithmetic mod an odd prime and the character functions built on it.

Everything downstream consumes three ingredients from this module: residue
arithmetic in F_p, the additive character psi(a) = exp(2*pi*i*a/p) (read from
the table unit_roots(p)), and the multiplicative characters (the Legendre
symbol and the characters of a cyclic group with a fixed generator).  Complex
values are double precision; the root-of-unity tables are computed once per
modulus and cached so repeated character sums are bit-stable across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CyclicCharacter",
    "legendre_symbol",
    "legendre_table",
    "unit_roots",
    "inverse_mod",
    "half_mod",
    "is_odd_prime",
    "primitive_root",
    "discrete_log_table",
    "sqrt_mod",
    "primes_in",
]


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return p


def inverse_mod(a: int, p: int) -> int:
    if a % p == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def half_mod(a: int, p: int) -> int:
    """a / 2 mod p.  (p + 1) // 2 is the inverse of 2 for odd p."""
    return (a * ((p + 1) // 2)) % p


@lru_cache(maxsize=None)
def unit_roots(n: int) -> np.ndarray:
    """exp(2*pi*i*k/n) for k in [0, n), computed once per n and reused.

    The returned array is shared; callers must treat it as read-only.
    """
    table = np.exp(2j * np.pi * np.arange(n) / n)
    table.setflags(write=False)
    return table


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol of a mod p: +1 on nonzero squares, -1 otherwise, 0 at 0."""
    _require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@lru_cache(maxsize=None)
def legendre_table(p: int) -> np.ndarray:
    """legendre_symbol(x, p) for x in [0, p), as a read-only int array."""
    table = np.array([legendre_symbol(x, p) for x in range(p)], dtype=np.int64)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class CyclicCharacter:
    """Character of a cyclic group of order N with a fixed generator g.

    The character of index k sends g^j to exp(2*pi*i*k*j/N); which concrete
    group element is "g" is the caller's convention.
    """

    order: int
    index: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "index", self.index % self.order)


def _order_mod(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x = (x * a) % p
        k += 1
    return k


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group F_p*."""
    _require_odd_prime(p)
    for g in range(2, p):
        if _order_mod(g, p) == p - 1:
            return g
    raise RuntimeError(f"no primitive root found mod {p}")  # unreachable for prime p


@lru_cache(maxsize=None)
def discrete_log_table(p: int) -> np.ndarray:
    """Index table ind[x] with x = primitive_root(p)**ind[x] mod p; ind[0] = -1."""
    g = primitive_root(p)
    table = np.full(p, -1, dtype=np.int64)
    x = 1
    for j in range(p - 1):
        table[x] = j
        x = (x * g) % p
    table.setflags(write=False)
    return table


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is a non-residue."""
    a %= p
    for x in range((p + 1) // 2 + 1):
        if (x * x) % p == a:
            return x
    return None


def primes_in(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p <= hi."""
    return [p for p in range(max(lo, 3), hi + 1) if is_odd_prime(p)]
