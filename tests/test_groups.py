import dataclasses
import itertools

import pytest

import numpy as np

from oracles import (
    enhancement_ratio,
    every_line,
    generator_by_element_orders,
    generator_by_prime_factors,
    heisenberg_product,
    norm_one_pairs_by_scan,
    torus_powers,
)
from qcatlab.arith import primes_in
from qcatlab.groups import (
    CatMap,
    SympMatrix,
    _norm_one_pairs,
    build_hecke_torus,
    classify_prime,
    line_index,
    line_sigmas,
    torus_elements,
)
from qcatlab.models import Realization, _omega

A_DEFAULT = CatMap(2, 1, 1, 1)


def all_heisenberg(p):
    return list(itertools.product(range(p), repeat=3))


def random_heis(rng, p):
    return tuple(int(rng.integers(p)) for _ in range(3))


def test_omega_antisymmetric_bilinear():
    p = 7
    u, v, w = (2, 3), (5, 1), (4, 6)
    assert _omega(*u, *u, p) == 0
    assert (_omega(*u, *v, p) + _omega(*v, *u, p)) % p == 0
    assert _omega(u[0] + w[0], u[1] + w[1], *v, p) == (_omega(*u, *v, p) + _omega(*w, *v, p)) % p


def test_heis_identity_element():
    p = 7
    e = (0, 0, 0)
    for h in [(1, 2, 3), (0, 6, 1)]:
        assert heisenberg_product(e, h, p) == h
        assert heisenberg_product(h, e, p) == h


def test_heis_product_example_mod7():
    # half of omega((1,0),(0,1)) = inv(2) = 4 mod 7
    assert heisenberg_product((1, 0, 0), (0, 1, 0), 7) == (1, 1, 4)


def test_heis_inverse_law(rng):
    p = 11
    e = (0, 0, 0)
    for _ in range(100):
        h = random_heis(rng, p)
        inverse = tuple(-c % p for c in h)
        assert heisenberg_product(h, inverse, p) == e
        assert heisenberg_product(inverse, h, p) == e


def test_heis_associativity_exhaustive_p3():
    p = 3
    for h1, h2, h3 in itertools.product(all_heisenberg(p), repeat=3):
        assert (heisenberg_product(heisenberg_product(h1, h2, p), h3, p)
                == heisenberg_product(h1, heisenberg_product(h2, h3, p), p))


def test_heis_associativity_sampled_p31(rng):
    p = 31
    for _ in range(300):
        h1, h2, h3 = (random_heis(rng, p) for _ in range(3))
        assert (heisenberg_product(heisenberg_product(h1, h2, p), h3, p)
                == heisenberg_product(h1, heisenberg_product(h2, h3, p), p))


def test_heis_center():
    p = 5
    for z in range(p):
        c = (0, 0, z)
        for h in all_heisenberg(p)[::7]:
            assert heisenberg_product(c, h, p) == heisenberg_product(h, c, p)
    # non-central elements fail to commute with something
    h, k = (1, 0, 0), (0, 1, 0)
    assert heisenberg_product(h, k, p) != heisenberg_product(k, h, p)


def test_symp_matrix_det_enforced():
    with pytest.raises(ValueError):
        SympMatrix(1, 0, 0, 2, 7)
    SympMatrix(2, 1, 1, 1, 7)  # det 1, fine


def test_symp_matrix_preserves_omega(rng):
    p = 13
    basis = [(1, 0), (0, 1)]
    from conftest import random_sl2
    for _ in range(50):
        g = random_sl2(rng, p)
        for u in basis:
            for v in basis:
                assert _omega(*g.apply(u), *g.apply(v), p) == _omega(*u, *v, p)


def test_symp_matrix_inverse_and_pow():
    p = 11
    g = SympMatrix(2, 1, 1, 1, p)
    e = SympMatrix.identity(p)
    assert g * g.inverse() == e
    assert g.inverse() * g == e
    assert (g * g).inverse() == g.inverse() * g.inverse()
    # g has order 5 mod 11: the fifth power is the identity, the inverse the fourth
    acc = e
    for _ in range(4):
        acc = acc * g
        assert acc != e
    assert acc == g.inverse()
    assert acc * g == e


def matrix_act(g, h):
    """The SL2 action (v, z) -> (g v, z) on the Heisenberg group."""
    return (*g.apply(h[:2]), h[2])


def test_matrix_act_is_automorphism(rng):
    p = 7
    from conftest import random_sl2
    for _ in range(50):
        g = random_sl2(rng, p)
        h1, h2 = random_heis(rng, p), random_heis(rng, p)
        assert (matrix_act(g, heisenberg_product(h1, h2, p))
                == heisenberg_product(matrix_act(g, h1), matrix_act(g, h2), p))


def test_matrix_act_identity_and_center():
    p = 7
    e = SympMatrix.identity(p)
    h = (3, 4, 2)
    assert matrix_act(e, h) == h
    g = SympMatrix(2, 1, 1, 1, p)
    for z in range(p):
        c = (0, 0, z)
        assert matrix_act(g, c) == c


def test_classify_prime_examples():
    # disc = 5: 4^2 = 16 = 5 mod 11, so split; Euler criterion 5^3 = 6 = -1 mod 7
    assert pow(4, 2, 11) == 5
    assert classify_prime(A_DEFAULT, 11) == "split"
    assert pow(5, 3, 7) == 7 - 1
    assert classify_prime(A_DEFAULT, 7) == "inert"
    assert classify_prime(A_DEFAULT, 5) == "ramified"
    for p in (9, 2):
        with pytest.raises(ValueError, match="odd prime"):
            classify_prime(A_DEFAULT, p)


def test_classify_rejects_non_hyperbolic():
    # no cat map with |trace| <= 2 is built, so none reaches classify_prime
    for entries in ((1, 1, 0, 1), (0, 1, -1, 0), (1, 0, 0, 1)):
        with pytest.raises(ValueError, match="not hyperbolic"):
            CatMap(*entries)


def test_classify_matches_eigenvector_search():
    # split <=> the reduction has an eigenvector over F_p (non-ramified p)
    for p in (7, 11, 13, 17, 19, 23, 29, 31):
        kind = classify_prime(A_DEFAULT, p)
        Ap = A_DEFAULT.reduce(p)
        has_eig = False
        for v1 in range(p):
            for v2 in range(p):
                if v1 == 0 and v2 == 0:
                    continue
                if _omega(*Ap.apply((v1, v2)), v1, v2, p) == 0:
                    has_eig = True
        assert has_eig == (kind == "split")


def test_torus_orders():
    assert build_hecke_torus(A_DEFAULT, 7).order == 8
    assert build_hecke_torus(A_DEFAULT, 7).kind == "inert"
    assert build_hecke_torus(A_DEFAULT, 11).order == 10
    assert build_hecke_torus(A_DEFAULT, 11).kind == "split"


def test_torus_rejects_ramified():
    with pytest.raises(ValueError):
        build_hecke_torus(A_DEFAULT, 5)


def test_torus_contains_identity_and_commutes():
    torus = build_hecke_torus(A_DEFAULT, 7)
    assert SympMatrix.identity(7) in torus_powers(torus)
    for g in torus_powers(torus):
        assert g * torus.matrix == torus.matrix * g


def test_torus_closed_under_product_and_inverse():
    torus = build_hecke_torus(A_DEFAULT, 7)
    elems = set(torus_powers(torus))
    for g in elems:
        assert g.inverse() in elems
        for h in elems:
            assert (g * h) in elems
            assert (g * h) == (h * g)


def test_torus_is_full_centralizer_brute_force():
    # independent oracle: enumerate all of SL2(F_7) and keep what commutes with A
    p = 7
    Ap = A_DEFAULT.reduce(p)
    centralizer = set()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p != 1:
                        continue
                    g = SympMatrix(a, b, c, d, p)
                    if g * Ap == Ap * g:
                        centralizer.add(g)
    # the generator's powers fill the centralizer only if it has full order
    torus = build_hecke_torus(A_DEFAULT, p)
    assert centralizer == set(torus_powers(torus))


def test_torus_generator_and_log_table():
    # the character labels read logs to the generator: j -> g^j must be a
    # bijection from [0, N) onto the torus, closing up at g^N = I
    for p in (7, 11, 13):
        torus = build_hecke_torus(A_DEFAULT, p)
        n = torus.order
        powers = torus_powers(torus)
        assert len(powers) == n and len(set(powers)) == n
        assert powers[-1] * torus.generator == SympMatrix.identity(p)


# generator entries (a, b, c, d): every character label is a log to the
# generator, so no change to how the torus is walked may move it
PINNED_GENERATORS = {
    "2,1;1,1": {7: (2, 1, 1, 1), 11: (9, 10, 10, 10), 13: (2, 1, 1, 1),
                101: (28, 12, 12, 16), 103: (2, 1, 1, 1), 197: (2, 1, 1, 1),
                199: (57, 125, 125, 131)},
    "3,2;1,1": {7: (3, 2, 1, 1), 11: (3, 2, 1, 1), 13: (3, 2, 1, 1),
                101: (95, 62, 31, 33), 103: (3, 2, 1, 1), 197: (194, 195, 196, 196),
                199: (3, 2, 1, 1)},
}


@pytest.mark.parametrize("matrix", sorted(PINNED_GENERATORS))
def test_generator_is_pinned(matrix):
    A = CatMap.parse(matrix)
    for p, entries in PINNED_GENERATORS[matrix].items():
        g = build_hecke_torus(A, p).generator
        assert (g.a, g.b, g.c, g.d) == entries, p


@pytest.mark.parametrize("matrix", sorted(PINNED_GENERATORS))
def test_generator_matches_the_walk_of_element_orders(matrix):
    # the first candidate of the x-major search with g^(N/q) != I at every
    # prime q dividing N is the one multiplying each candidate until it
    # returns to I finds
    A = CatMap.parse(matrix)
    primes = [p for p in primes_in(3, 199) if classify_prime(A, p) != "ramified"]
    for p in primes:
        assert build_hecke_torus(A, p).generator == generator_by_element_orders(A, p), p
    assert len(primes) == 44


@pytest.mark.parametrize("matrix", sorted(PINNED_GENERATORS))
def test_generator_is_the_prime_factor_search(matrix):
    # the generator is the first candidate with g^(N/q) != I at every prime
    # q dividing N, here with the factors found by scanning 2..N
    A = CatMap.parse(matrix)
    primes = [p for p in primes_in(3, 199) if classify_prime(A, p) != "ramified"]
    for p in primes + [1009, 2003]:
        assert build_hecke_torus(A, p).generator == generator_by_prime_factors(A, p), p


@pytest.mark.parametrize("matrix", sorted(PINNED_GENERATORS))
def test_torus_elements_are_the_powers(matrix):
    # the cached walk, entry for entry, against g^j by repeated products
    A = CatMap.parse(matrix)
    for p in primes_in(3, 61):
        if classify_prime(A, p) == "ramified":
            continue
        torus = build_hecke_torus(A, p)
        powers = torus_powers(torus)
        expected = [[getattr(g, name) for g in powers] for name in "abcd"]
        assert [e.tolist() for e in torus_elements(torus)] == expected, p


def test_walk_is_shared_and_read_only():
    # every reader of a torus gets the one cached walk of its generator,
    # and no reader can write into it
    for p in (7, 11, 13, 101):
        torus = build_hecke_torus(A_DEFAULT, p)
        entries = torus_elements(torus)
        assert entries is torus_elements(torus)
        for e in entries:
            assert e.dtype == np.int64 and e.shape == (torus.order,)
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0] = 0


def test_torus_search_walks_only_the_generator():
    # candidates are accepted or rejected by their order alone: the search
    # walks nothing, and the first reader walks the generator once
    for p in (7, 11, 13, 101):
        torus_elements.cache_clear()
        torus = build_hecke_torus(A_DEFAULT, p)
        assert torus_elements.cache_info().currsize == 0, p
        torus_elements(torus)
        torus_elements(torus)
        info = torus_elements.cache_info()
        assert (info.misses, info.currsize) == (1, 1), p


@pytest.mark.parametrize("matrix", sorted(PINNED_GENERATORS))
def test_norm_one_pairs_are_the_scan_of_the_plane(matrix):
    # the pairs read from square roots, one or two per x, are the points of
    # the plane the scan finds, in its x-major order with y ascending, and
    # the count read from the table is theirs
    A = CatMap.parse(matrix)
    for p in primes_in(3, 199):
        if classify_prime(A, p) != "ramified":
            expected = norm_one_pairs_by_scan(A, p)
            count, pairs = _norm_one_pairs(A.reduce(p).trace(), p)
            assert np.array_equal(np.array(list(pairs)), expected), p
            assert count == len(expected), p


def test_line_sigmas_are_one_per_line_in_slope_order():
    # (1, m) for each slope m, then (0, 1): line_index inverts the order
    for p in (3, 7, 13):
        s1, s2 = line_sigmas(p)
        assert list(zip(s1.tolist(), s2.tolist())) == [(1, m) for m in range(p)] + [(0, 1)]
        assert np.array_equal(line_index(s1, s2, p), np.arange(p + 1))


def test_torus_is_frozen_to_its_generator():
    torus = build_hecke_torus(A_DEFAULT, 7)
    assert [f.name for f in dataclasses.fields(torus)] == ["matrix", "kind", "order", "generator"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        torus.order = 9


def test_line_sigmas_lie_on_distinct_lines():
    # p + 1 sigmas, pairwise transverse, and each line's canonical
    # realization keeps its sigma
    for p in (3, 7):
        s1, s2 = line_sigmas(p)
        sigmas = list(zip(s1.tolist(), s2.tolist()))
        assert len(sigmas) == p + 1
        assert all(_omega(*u, *v, p) for u, v in itertools.combinations(sigmas, 2))
        assert [r.sigma for r in every_line(p)] == sigmas


def test_proportional_sigmas_share_line():
    p = 7
    assert line_index(1, 3, p) == line_index(2, 6, p) == 3
    assert enhancement_ratio((2, 6), (1, 3), p) == 2
    assert enhancement_ratio((0, 5), (0, 1), p) == 5
    assert line_index(0, 1, p) != line_index(1, 3, p)
    with pytest.raises(ValueError):
        enhancement_ratio((1, 3), (0, 1), p)
    with pytest.raises(ValueError):
        Realization.of(0, 0, p)


def test_cat_map_parse():
    A = CatMap.parse("2,1;1,1")
    assert (A.a, A.b, A.c, A.d) == (2, 1, 1, 1)
    assert A.trace == 3 and A.discriminant == 5
    with pytest.raises(ValueError):
        CatMap.parse("2,1;1")
    with pytest.raises(ValueError):
        CatMap.parse("nonsense")
    with pytest.raises(ValueError):
        CatMap.parse("1,1;0,1")  # shear: not hyperbolic
    with pytest.raises(ValueError):
        CatMap(2, 0, 0, 1)  # det 2
