import numpy as np
import pytest

from qcatlab.arith import (
    half_mod,
    is_odd_prime,
    legendre_symbol,
    pow_mod,
    primes_in,
    unit_roots,
)

SMALL_PRIMES = primes_in(3, 31)


def test_half_matches_brute_force():
    # the unique x with 2x = 1 mod 7
    (x,) = [x for x in range(7) if (2 * x) % 7 == 1]
    assert x == 4
    assert half_mod(1, 7) == 4
    for p in SMALL_PRIMES:
        for a in range(p):
            h = half_mod(a, p)
            assert 0 <= h < p and (2 * h) % p == a


def test_modulus_must_be_odd_prime():
    for bad in (1, 2, 4, 9, 15, 100):
        with pytest.raises(ValueError):
            legendre_symbol(0, bad)


def test_field_ops_match_integer_arithmetic():
    # b^(p - 2) is the inverse the package takes, for an int and
    # elementwise over an array, negative and unreduced entries included
    p = 13
    b = np.arange(1, p)
    for e in (b, b + 5 * p, b - 3 * p):
        inv = pow_mod(e, p - 2, p)
        assert ((0 <= inv) & (inv < p)).all() and (b * inv % p == 1).all()
        assert inv.tolist() == [pow_mod(int(a), p - 2, p) for a in e]
    assert pow_mod(1, p - 2, p) == 1


def test_additive_char_at_identity():
    assert unit_roots(7)[0] == 1


def test_additive_char_inverse_argument():
    for p in (7, 13):
        psi = unit_roots(p)
        for a in range(p):
            assert abs(psi[a] * psi[-a % p] - 1) < 1e-12


def test_additive_char_sums_to_zero():
    assert abs(unit_roots(7).sum()) < 1e-12


def test_additive_char_homomorphism_exhaustive_small():
    for p in SMALL_PRIMES:
        psi = unit_roots(p)
        for a in range(p):
            for b in range(p):
                assert abs(psi[a] * psi[b] - psi[(a + b) % p]) < 1e-12


def test_additive_char_homomorphism_sampled_large(rng):
    p = 101
    psi = unit_roots(p)
    for _ in range(200):
        a, b = rng.integers(p), rng.integers(p)
        assert abs(psi[a] * psi[b] - psi[(a + b) % p]) < 1e-12


def test_legendre_examples():
    assert legendre_symbol(1, 7) == 1
    # squares mod 7 are {1, 2, 4}
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(5, 7) == -1
    assert legendre_symbol(0, 7) == 0
    assert legendre_symbol(-5, 7) == legendre_symbol(2, 7)


def test_legendre_matches_square_enumeration_everywhere():
    for p in primes_in(3, 199):
        squares = {(x * x) % p for x in range(1, p)}
        expected = [0 if a == 0 else (1 if a in squares else -1) for a in range(p)]
        assert [legendre_symbol(a, p) for a in range(p)] == expected
        # elementwise over an array, negative entries included
        assert legendre_symbol(np.arange(-p, p), p).tolist() == expected * 2


def test_legendre_multiplicative():
    p = 31
    for a in range(1, p):
        for b in range(1, p):
            assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_character_orthogonality_exhaustive():
    # (1/N) sum_j chi_k(g^j) conj(chi_m(g^j)) = [k == m], for every N <= 200
    for n in range(1, 201):
        roots = unit_roots(n)
        table = roots[np.outer(np.arange(n), np.arange(n)) % n]
        gram = table @ table.conj().T / n
        assert np.allclose(gram, np.eye(n), atol=1e-9)


def test_unit_roots_cached_and_read_only():
    t1 = unit_roots(7)
    assert t1 is unit_roots(7)
    with pytest.raises(ValueError):
        t1[0] = 0.0


def test_is_odd_prime_cache_is_bounded():
    # primes_in tests each odd integer of its range once; the cache must not
    # keep an entry for every integer it has tested
    is_odd_prime.cache_clear()
    assert len(primes_in(3, 2000)) == 302
    info = is_odd_prime.cache_info()
    assert info.misses > 16  # the range tested more integers than the bound keeps
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 16
