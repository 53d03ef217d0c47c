"""Exact arithmetic mod an odd prime and the character functions built on it.

Everything downstream consumes three ingredients from this module: residue
arithmetic in F_p, the additive character psi(a) = exp(2*pi*i*a/p) (read from
the table unit_roots(p)), and the Legendre symbol.  Complex values are double
precision; the root-of-unity tables are cached for the last few moduli and
recomputed bit for bit, so repeated character sums are bit-stable and the
characters of any cyclic group of order n read the same table unit_roots(n).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "legendre_symbol",
    "pow_mod",
    "unit_roots",
    "half_mod",
    "is_odd_prime",
    "primes_in",
]


@lru_cache(maxsize=8)
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


def half_mod(a: int, p: int) -> int:
    """a / 2 mod p.  (p + 1) // 2 is the inverse of 2 for odd p."""
    return (a * ((p + 1) // 2)) % p


@lru_cache(maxsize=8)
def unit_roots(n: int) -> np.ndarray:
    """exp(2*pi*i*k/n) for k in [0, n), cached for the last few n.

    The returned array is shared; callers must treat it as read-only.
    """
    table = np.exp(2j * np.pi * np.arange(n) / n)
    table.setflags(write=False)
    return table


def pow_mod(a, e: int, p: int):
    """a^e mod p for an int, or elementwise over an integer array (p < 3e9,
    so that products of residues fit in int64)."""
    out, a = 1, a % p
    while e:
        if e & 1:
            out = out * a % p
        a, e = a * a % p, e >> 1
    return out


def legendre_symbol(a, p: int):
    """Legendre symbol of a mod p: +1 on nonzero squares, -1 otherwise, 0 at
    0, by Euler's criterion; elementwise over an integer array."""
    _require_odd_prime(p)
    s = pow_mod(a, (p - 1) // 2, p)
    return s - (s == p - 1) * p


def primes_in(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p <= hi."""
    return [p for p in range(max(lo, 3) | 1, hi + 1, 2) if is_odd_prime(p)]
