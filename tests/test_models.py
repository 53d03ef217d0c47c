import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_sl2
from oracles import (
    averaging_by_summation,
    coordinate_change_by_decomposition,
    dense_validate_family,
    every_line,
    fixed_lines,
    heisenberg_product,
    projective_egorov_solver,
    regauge,
)
from qcatlab.arith import legendre_symbol, primes_in, unit_roots
from qcatlab.groups import (
    CatMap,
    SympMatrix,
    build_hecke_torus,
    classify_prime,
    line_sigmas,
    torus_elements,
)
from qcatlab import models
from qcatlab.models import (
    IntertwinerConstructionError,
    Realization,
    _omega,
    _validate_family,
    averaging_scale,
    canonical_intertwiner,
    commutant_dimension,
    geometric_action,
    heisenberg_op,
    intertwine,
    raw_averaging,
    weil_chirps,
    weil_entries,
    weil_op,
)


def random_heis(rng, p):
    return tuple(int(rng.integers(p)) for _ in range(3))


# ---------------------------------------------------------------------------
# independent oracle: the induced model built on the full p^3 group table


def induction_model_matrix(r, h0):
    """Action of h0 on the induced model, computed without coordinates.

    Basis vector f_x is the equivariant extension of the indicator of the
    transversal point t_x = (x*tau, 0); the action is right translation on
    functions over all p^3 group elements, read back on the transversal.
    """
    p = r.p
    psi = unit_roots(p)
    s1, s2 = r.sigma
    t1, t2 = r.tau
    transversal = [(x * t1 % p, x * t2 % p, 0) for x in range(p)]
    matrix = np.zeros((p, p), dtype=np.complex128)
    for x, t_x in enumerate(transversal):
        f = {}
        for l in range(p):
            for z in range(p):
                f[heisenberg_product((l * s1, l * s2, z), t_x, p)] = psi[z]
        assert len(f) == p * p
        for y, t_y in enumerate(transversal):
            matrix[y, x] = f.get(heisenberg_product(t_y, h0, p), 0.0)
    return matrix


@pytest.mark.parametrize("p", [5, 7])
def test_heisenberg_op_matches_induction_model(p, rng):
    for r in every_line(p):
        for h0 in [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                   random_heis(rng, p), random_heis(rng, p)]:
            expected = induction_model_matrix(r, h0)
            got = heisenberg_op(r, *h0)
            assert np.allclose(got, expected, atol=1e-12)


def test_heisenberg_op_matches_induction_model_all_elements_p5():
    p = 5
    r = Realization.standard(p)
    for h0 in itertools.product(range(p), repeat=3):
        assert np.allclose(heisenberg_op(r, *h0),
                           induction_model_matrix(r, h0), atol=1e-12)


def test_standard_model_textbook_formula():
    # in the position model the action must be psi(z + b x + a b / 2) f(x + a)
    p = 7
    r = Realization.standard(p)
    inv2 = (p + 1) // 2
    for a, b, z in [(1, 0, 0), (0, 1, 0), (3, 2, 5), (6, 6, 6)]:
        m = heisenberg_op(r, a, b, z)
        expected = np.zeros((p, p), dtype=complex)
        for x in range(p):
            expected[x, (x + a) % p] = unit_roots(p)[(z + b * x + inv2 * a * b) % p]
        assert np.allclose(m, expected, atol=1e-12)


def test_shift_convention_delta():
    # h = ((1,0),0) sends the delta at 0 to the delta at p-1 in the position model
    p = 5
    r = Realization.standard(p)
    delta0 = np.zeros(p, dtype=complex)
    delta0[0] = 1.0
    moved = heisenberg_op(r, 1, 0, 0) @ delta0
    expected = np.zeros(p, dtype=complex)
    expected[p - 1] = 1.0
    assert np.allclose(moved, expected)


def test_central_character():
    for p in (5, 7):
        for r in every_line(p):
            for z in range(p):
                m = heisenberg_op(r, 0, 0, z)
                assert np.allclose(m, unit_roots(p)[z] * np.eye(p), atol=1e-12)


def test_heisenberg_homomorphism_sampled(rng):
    p = 5
    r = Realization.standard(p)
    for _ in range(1000):
        h1, h2 = random_heis(rng, p), random_heis(rng, p)
        lhs = heisenberg_op(r, *h1) @ heisenberg_op(r, *h2)
        rhs = heisenberg_op(r, *heisenberg_product(h1, h2, p))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_operators_unitary(rng):
    for p in (5, 11):
        tol = 1e-9 * p
        eye = np.eye(p)
        for r in every_line(p)[:3]:
            m = heisenberg_op(r, *random_heis(rng, p))
            assert np.linalg.norm(m @ m.conj().T - eye) < tol
            g = random_sl2(rng, p)
            w = weil_op(r, g).matrix
            assert np.linalg.norm(w @ w.conj().T - eye) < tol
        f = canonical_intertwiner(every_line(p)[2], every_line(p)[0])
        assert np.linalg.norm(f @ f.conj().T - eye) < tol


@pytest.mark.parametrize("p", [3, 5, 7, 61])
def test_canonical_gauge_is_first_transverse_enumerated_line(p):
    s1, s2 = line_sigmas(p)
    lines = list(zip(s1.tolist(), s2.tolist()))
    for sigma in itertools.product(range(p), repeat=2):
        if sigma == (0, 0):
            continue
        cand = next(c for c in lines if _omega(*c, *sigma, p) != 0)
        scale = pow(_omega(*cand, *sigma, p), -1, p)
        assert Realization.of(*sigma, p).tau == (scale * cand[0] % p, scale * cand[1] % p)


def test_model_dimension_is_p():
    for p in (5, 7, 11):
        r = Realization.standard(p)
        assert heisenberg_op(r, 0, 0, 0).shape == (p, p)


def test_realization_checks_its_pairing():
    # omega(tau, sigma) = 1 is the one check: it rules out sigma = 0, and
    # both pairs are reduced mod p before it
    p = 7
    r = Realization(p, (8, -6), (-13, 0))
    assert (r.sigma, r.tau) == ((1, 1), (1, 0)) and r == Realization.of(1, 1, p)
    with pytest.raises(ValueError):
        Realization(p, (0, 0), (1, 0))
    with pytest.raises(ValueError):
        Realization.of(0, 0, p)
    with pytest.raises(ValueError):
        Realization(p, (0, 1), (2, 0))  # omega(tau, sigma) = 2


# ---------------------------------------------------------------------------
# raw averaging


def test_raw_averaging_intertwines_all_generators():
    p = 5
    src = Realization.standard(p)
    tgt = Realization.of(1, 0, p)
    a = raw_averaging(tgt, src)
    for v1 in range(p):
        for v2 in range(p):
            lhs = a @ heisenberg_op(src, v1, v2, 0)
            rhs = heisenberg_op(tgt, v1, v2, 0) @ a
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_raw_averaging_rejects_shared_line():
    p = 5
    with pytest.raises(ValueError):
        raw_averaging(Realization.of(0, 2, p), Realization.standard(p))


def test_raw_averaging_schur_scalar():
    # back-and-forth composition is a scalar; |scalar| = p for the standard pair
    p = 5
    src = Realization.standard(p)
    tgt = Realization.of(1, 0, p)
    prod = raw_averaging(src, tgt) @ raw_averaging(tgt, src)
    c = prod[0, 0]
    assert np.allclose(prod, c * np.eye(p), atol=1e-9)
    assert abs(abs(c) - p) < 1e-9


# ---------------------------------------------------------------------------
# the canonical family


def test_normalization_exact_identity():
    for p in (5, 7, 11, 13):
        r = Realization.of(1, 2 % p, p)
        f = canonical_intertwiner(r, r)
        assert np.array_equal(f, np.eye(p))


def test_averaging_scale_unitary_modulus():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert abs(abs(averaging_scale(p)) - p ** -0.5) < 1e-12


def solved_scale(p):
    """The constant solved from convolution instead of read off a formula.

    On a pairwise transverse triple, F = scale * chi_q(omega) * A turns
    F_nm F_ml = F_nl into A_nm A_ml = c A_nl with
    scale = chi_q(w_nm w_ml w_nl) / c; two triples must give the same scale.
    """
    solutions = []
    for triple in (((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (1, 0))):
        rn, rm, rl = (Realization.of(s1, s2, p) for s1, s2 in triple)
        a_nl = raw_averaging(rn, rl)
        product = raw_averaging(rn, rm) @ raw_averaging(rm, rl)
        i, j = np.unravel_index(np.argmax(np.abs(a_nl)), a_nl.shape)
        c = product[i, j] / a_nl[i, j]
        assert np.linalg.norm(product - c * a_nl) < 1e-9 * np.linalg.norm(product)
        w = 1
        for x, y in ((rn, rm), (rm, rl), (rn, rl)):
            w *= _omega(*x.sigma, *y.sigma, p)
        solutions.append(legendre_symbol(w, p) / c)
    assert abs(solutions[0] - solutions[1]) < 1e-12
    return solutions[0]


def test_averaging_scale_closed_form():
    # the production constant is the normalized Gauss sum
    # (1/p) sum_t psi(-t^2/2), and the convolution constraint solves to it
    for p in primes_in(3, 199):
        inv2 = (p + 1) // 2
        gauss = sum(unit_roots(p)[(-t * t * inv2) % p] for t in range(p)) / p
        assert abs(averaging_scale(p) - gauss) < 1e-12
        assert abs(averaging_scale(p) - solved_scale(p)) < 1e-12


@pytest.mark.parametrize("p", [7, 11])
def test_validation_rejects_a_wrong_constant(p):
    # -scale passes normalization, the returning pair, the sign rule and
    # invariance; only convolution on a transverse triple catches it
    with pytest.raises(IntertwinerConstructionError, match="convolution"):
        _validate_family(p, -averaging_scale(p))


@pytest.mark.parametrize("p", [7, 11])
def test_validation_rejects_a_conjugate_constant(p):
    # at p = 3 mod 4 the Gauss sum is imaginary, so its conjugate is -scale
    with pytest.raises(IntertwinerConstructionError, match="convolution"):
        _validate_family(p, np.conj(averaging_scale(p)))


@pytest.mark.parametrize("scale", [np.nan, np.inf, complex(np.nan, np.nan)])
@pytest.mark.parametrize("p", [11, 13])
def test_validation_rejects_a_non_finite_constant(p, scale):
    # a NaN residual compares false with every bound, so a check that raises
    # only when the residual exceeds its bound would pass it; p = 11 and 13
    # are 3 and 1 mod 4
    with np.errstate(invalid="ignore"), pytest.raises(IntertwinerConstructionError):
        _validate_family(p, scale)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_validation_rejects_an_image_without_its_phase(p, monkeypatch):
    # the geometric phase of g.r is the one quantity only invariance reads:
    # with mu forced to 0 every other property still holds
    scale = averaging_scale(p)
    image = models._image

    def without_phase(r, g):
        frame, mu = image(r, g)
        return frame, 0 * mu

    monkeypatch.setattr(models, "_image", without_phase)
    with pytest.raises(IntertwinerConstructionError, match="invariance fails"):
        _validate_family(p, scale)


def _on_shared_lines(ch):
    """Whether each element of a chirps batch joins two gauges of one line."""
    on_line = np.zeros(np.size(ch.coef), dtype=bool)
    on_line[ch.shared] = True
    return on_line.reshape(np.shape(ch.coef))


# one field of the operator form corrupted, on the batch's transverse or
# shared elements: (chirps, on_line, scale) -> chirps, the chirps left for
# _apply_chirps to reduce mod p
FORM_MUTANTS = {
    "transverse-qa+1": lambda ch, on, scale: ch._replace(qa=np.where(on, ch.qa, ch.qa + 1)),
    "beta+1": lambda ch, on, scale: ch._replace(beta=np.where(on, ch.beta, ch.beta + 1)),
    "transverse-qb+1": lambda ch, on, scale: ch._replace(qb=np.where(on, ch.qb, ch.qb + 1)),
    "shared-twist-0": lambda ch, on, scale: ch._replace(qa=np.where(on, 0, ch.qa)),
    "shared-lift-1": lambda ch, on, scale: ch._replace(lift=np.ones_like(ch.lift)),
    "shared-sign": lambda ch, on, scale: ch._replace(coef=np.where(on, -ch.coef, ch.coef)),
    "transverse-sign": lambda ch, on, scale: ch._replace(coef=np.where(on, ch.coef, -ch.coef)),
    "transverse-without-chi": lambda ch, on, scale: ch._replace(coef=np.where(on, ch.coef, scale)),
}


# each mutant with the first failure the family check reports
FIRST_FAILURES = [
    # a wrong chirp breaks the operators themselves: the returning pair no
    # longer composes to the identity
    ("transverse-qa+1", "returning pair"),
    ("beta+1", "returning pair"),
    ("transverse-qb+1", "returning pair"),
    # the sign rule's gauges have transversals on different lines, so the
    # coordinate change it compares through carries nontrivial phases and
    # moves points: without its twist or its lift it is the wrong map
    ("shared-twist-0", "sign rule fails in target slot"),
    ("shared-lift-1", "sign rule fails in target slot"),
    ("shared-sign", "normalization fails"),
    ("transverse-sign", "convolution fails on an anchor triple"),
    # chi_q(-1) = -1 at p = 3 mod 4 spoils the returning pair; at p = 1 mod 4
    # it is 1 and the anchor triples' other transverse pairs catch it
    ("transverse-without-chi", {3: "returning pair", 1: "convolution fails"}),
]


@pytest.mark.parametrize("mutant, message", FIRST_FAILURES, ids=[m for m, _ in FIRST_FAILURES])
@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_validation_rejects_a_wrong_field_of_the_form(p, mutant, message, monkeypatch):
    # every operator the family check applies comes from _chirps_between,
    # as production's do, so one wrong field of its form fails the check
    scale = averaging_scale(p)
    chirps_between = models._chirps_between

    def corrupted(targets, sources, modulus, scale):
        ch = chirps_between(targets, sources, modulus, scale)
        return FORM_MUTANTS[mutant](ch, _on_shared_lines(ch), scale)

    monkeypatch.setattr(models, "_chirps_between", corrupted)
    if isinstance(message, dict):
        message = message[p % 4]
    with pytest.raises(IntertwinerConstructionError, match=message):
        _validate_family(p, scale)


def test_validation_allocates_no_p_by_p_array():
    # one p x p complex array is 16 p^2 bytes (16.3 MB at p = 1009); the
    # probe validation's traced peak, three batches of applications on the
    # (p, 3) probe block, stays near 1.4 MB there
    p = 1009
    scale = averaging_scale(p)
    tracemalloc.start()
    try:
        _validate_family(p, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * p * p / 10


def verdict(validate, p, scale):
    try:
        validate(p, scale)
    except IntertwinerConstructionError as exc:
        return str(exc)
    return None


def test_probe_validation_agrees_with_dense_validation():
    # the same property fails first, or none does, for the right constant,
    # its negative, its conjugate (equal to it at p = 1 mod 4) and NaN,
    # whose residuals compare false with every bound
    for p in primes_in(3, 31):
        scale = averaging_scale(p)
        for candidate in (scale, -scale, np.conj(scale), complex("nan")):
            with np.errstate(invalid="ignore"):
                expected = verdict(dense_validate_family, p, candidate)
                assert verdict(_validate_family, p, candidate) == expected
        assert verdict(_validate_family, p, scale) is None
        assert verdict(_validate_family, p, -scale) is not None


def realizations_with_regauged(p):
    """Every line's canonical realization, two re-enhanced sigmas on the
    first lines and a non-canonical transversal: sigma = (2, 4) with tau on
    the line of (1, 1)."""
    half = pow(2, -1, p)
    out = every_line(p)
    out += [Realization.of(2 * s1 % p, 2 * s2 % p, p) for s1, s2 in (r.sigma for r in out[:2])]
    return out + [Realization(p, (2, 4), (half, half))]


def by_definition(target, source):
    """The canonical operator from its definition: the summation oracle for
    transverse lines, the decomposition oracle on a shared line."""
    if _omega(*target.sigma, *source.sigma, target.p):
        return averaging_by_summation(target, source)
    return coordinate_change_by_decomposition(target, source)


@pytest.mark.parametrize("p", primes_in(3, 31))
def test_intertwine_is_the_dense_operator_at_every_pair(p, rng):
    # identity, shared lines (re-enhanced and re-gauged) and transverse pairs,
    # against the operator by its definition (FFT rounding: at most 4.6e-15
    # per entry for p <= 31 on these blocks)
    block = rng.normal(size=(p, 5)) + 1j * rng.normal(size=(p, 5))
    rs = realizations_with_regauged(p)
    for target, source in itertools.product(rs, repeat=2):
        dense = by_definition(target, source) @ block
        assert np.abs(intertwine(target, source, block) - dense).max() < 1e-13
    assert np.array_equal(intertwine(rs[0], rs[0], block), block)


def test_intertwine_is_the_dense_operator_at_sampled_pairs(rng):
    # rounding grows slowly with p: 4.7e-15 per entry at p = 101
    for p in primes_in(37, 199):
        block = rng.normal(size=(p, 3)) + 1j * rng.normal(size=(p, 3))
        for _ in range(4):
            target, source = random_enhanced(rng, p), random_enhanced(rng, p)
            dense = by_definition(target, source) @ block
            assert np.abs(intertwine(target, source, block) - dense).max() < 1e-12


@pytest.mark.parametrize("p", [3, 7, 11])
def test_one_chirps_batch_applies_shared_and_transverse_pairs(p, rng):
    # one _apply_chirps over identical realizations, the sign rule's
    # re-gauged pairs and transverse pairs, one block per pair: each output
    # is the operator by its definition on its block, and bit for bit the
    # pair's own intertwine
    rl, rm, rd = (Realization.of(s1, s2, p) for s1, s2 in ((1, 0), (0, 1), (1, 1)))
    regauged = [(Realization(p, (0, a), (pow(a, -1, p), 1)),
                 Realization(p, (a, 0), (0, -pow(a, -1, p)))) for a in (2, p - 1)]
    pairs = [(rl, rl), (rm, rm), (rm, rl), (rl, rm), (rd, rm), (rl, rd)]
    for target_scaled, source_scaled in regauged:
        pairs += [(target_scaled, rm), (rm, target_scaled), (source_scaled, rl),
                  (rl, source_scaled), (target_scaled, rl), (rm, source_scaled)]
    target, source = (tuple(np.array([models._frame(r) for r in rs]).T) for rs in zip(*pairs))
    chirps = models._chirps_between(target, source, p, averaging_scale(p))
    shared = [i for i, (t, s) in enumerate(pairs) if not _omega(*t.sigma, *s.sigma, p)]
    assert chirps.shared.tolist() == shared and 0 < len(shared) < len(pairs)
    blocks = rng.normal(size=(len(pairs), p, 2)) + 1j * rng.normal(size=(len(pairs), p, 2))
    out = models._apply_chirps(chirps, blocks)
    assert out.shape == blocks.shape
    for (t, s), block, got in zip(pairs, blocks, out):
        assert np.abs(got - by_definition(t, s) @ block).max() < 1e-13
        assert np.array_equal(got, intertwine(t, s, block))


@st.composite
def realization_and_element(draw):
    """(r, g, seed): r on any line of an odd p <= 97, its transversal the
    canonical one moved along sigma by t (t = 0 is canonical, t != 0 a
    non-canonical gauge); g is +-I, which keep every line, or None for a
    random element drawn from the seed."""
    p = draw(st.sampled_from(primes_in(3, 97)))
    s1, s2 = draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
                  .filter(lambda s: s != (0, 0)))
    t = draw(st.integers(0, p - 1))
    t1, t2 = Realization.of(s1, s2, p).tau
    r = Realization(p, (s1, s2), (t1 + t * s1, t2 + t * s2))
    g = draw(st.sampled_from([None, SympMatrix.identity(p), SympMatrix(-1, 0, 0, -1, p)]))
    return r, g, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(realization_and_element())
def test_weil_operator_is_an_intertwiner_after_the_geometric_phases(case):
    # rho(g) = F_{r <- g.r} diag(phases): the identity hecke_spectrum's residual
    # applies, on the shared-line path too when g = +-I
    r, g, seed = case
    rng = np.random.default_rng(seed)
    g = random_sl2(rng, r.p) if g is None else g
    block = rng.normal(size=(r.p, 3)) + 1j * rng.normal(size=(r.p, 3))
    image, phases = geometric_action(r, g)
    fast = intertwine(r, image, phases[:, np.newaxis] * block)
    # against weil_entries, the same chirps evaluated entry by entry with no
    # FFT; FFT rounding grows slowly with p: at most 5.6e-15 per entry for
    # p <= 97 on standard normal blocks, against order 1 for a wrong phase
    y = np.arange(r.p)
    entries = weil_entries(weil_chirps(r, (g.a, g.b, g.c, g.d)), y[:, np.newaxis], y)
    assert np.abs(fast - entries @ block).max() < 1e-12


@st.composite
def torus_and_powers(draw):
    """(r, torus, i, j): the torus of either cat map at an odd unramified
    p <= 97, r on any line of that p, and two powers i, j of its generator."""
    matrix = draw(st.sampled_from([CatMap(2, 1, 1, 1), CatMap(3, 2, 1, 1)]))
    p = draw(st.sampled_from([p for p in primes_in(3, 97)
                              if classify_prime(matrix, p) != "ramified"]))
    s1, s2 = draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
                  .filter(lambda s: s != (0, 0)))
    torus = build_hecke_torus(matrix, p)
    i, j = draw(st.tuples(*[st.integers(0, torus.order - 1)] * 2))
    return Realization.of(s1, s2, p), torus, i, j


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(torus_and_powers())
def test_weil_operator_is_a_homomorphism_on_the_torus(case):
    # rho(g^i) rho(g^j) delta_b = rho(g^(i + j)) delta_b for every b at once:
    # each rho applied as the intertwiner after the geometric phases, against
    # the columns of weil_entries, whose chirps the torus walk reads
    r, torus, i, j = case
    powers = np.stack(torus_elements(torus), axis=1)  # row k: (a, b, c, d) of g^k

    def rho(k, block):
        image, phases = geometric_action(r, SympMatrix(*powers[k].tolist(), r.p))
        return intertwine(r, image, phases[:, np.newaxis] * block)

    y = np.arange(r.p)
    entries = weil_entries(weil_chirps(r, tuple(powers[(i + j) % torus.order])),
                           y[:, np.newaxis], y)
    # two FFT applications: at most 2.6e-15 per entry for p <= 97 on these
    # cases, against order 1 for a wrong phase or a wrong power
    assert np.abs(rho(i, rho(j, np.eye(r.p))) - entries).max() < 1e-12


@st.composite
def egorov_case(draw):
    """(r, g, h): r at an odd p <= 97, with sigma a drawn multiple of the
    sigma of a drawn line, or of a line a cat map's torus fixes (a split
    prime's eigenline), and tau the canonical one moved along sigma by a
    drawn t, or r in the gauge sigma = (2, 4) with tau on the line of
    (1, 1); g is a random element from a drawn seed, a drawn power of that
    torus's generator (every power keeps a fixed line), I or -I; h is a
    drawn Heisenberg element."""
    matrix = draw(st.sampled_from([CatMap(2, 1, 1, 1), CatMap(3, 2, 1, 1)]))
    line = draw(st.sampled_from(["any", "gauge", "fixed"]))
    kinds = ("split",) if line == "fixed" else ("split", "inert")
    p = draw(st.sampled_from([p for p in primes_in(3, 97) if classify_prime(matrix, p) in kinds]))
    torus = build_hecke_torus(matrix, p)
    if line == "gauge":
        half = pow(2, -1, p)
        r = Realization(p, (2, 4), (half, half))
    else:
        lines = fixed_lines(torus) if line == "fixed" else every_line(p)
        e, t = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
        s1, s2 = (e * s % p for s in draw(st.sampled_from(lines)).sigma)
        t1, t2 = Realization.of(s1, s2, p).tau
        r = Realization(p, (s1, s2), (t1 + t * s1, t2 + t * s2))
    element = draw(st.sampled_from(["random", "torus", "I", "-I"]))
    if element == "torus":
        powers = torus_elements(torus)
        j = draw(st.integers(0, torus.order - 1))
        g = SympMatrix(*(int(entry[j]) for entry in powers), p)
    elif element == "random":
        g = random_sl2(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), p)
    else:
        g = SympMatrix.identity(p) if element == "I" else SympMatrix(-1, 0, 0, -1, p)
    h = tuple(draw(st.integers(0, p - 1)) for _ in range(3))
    return r, g, h


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(egorov_case())
def test_weil_operator_satisfies_the_egorov_identity(case):
    # rho(g) pi(h) rho(g)^-1 = pi(g v, z) for h = (v, z): the image g.r and
    # its phases (_image) and the shared-line constant and map, when g keeps
    # r's line, against the Heisenberg operators built from the group law
    r, g, h = case
    w = weil_op(r, g).matrix
    lhs = w @ heisenberg_op(r, *h) @ np.linalg.inv(w)
    rhs = heisenberg_op(r, *g.apply(h[:2]), h[2])
    # entries of modulus at most 1: rounding, growing slowly with p through
    # the prime-length FFT, is at most 2.2e-15 for p <= 97 on these cases,
    # against order 1 for a wrong phase, lift or image
    assert np.abs(lhs - rhs).max() < 1e-11


def test_sign_rule_exhaustive_p7():
    p = 7
    base_t = Realization.of(0, 1, p)
    base_s = Realization.of(1, 0, p)
    f = canonical_intertwiner(base_t, base_s)
    for a in range(2, p):
        chi = legendre_symbol(a, p)
        scaled_t = Realization.of(0, a, p)
        g = canonical_intertwiner(scaled_t, base_s)
        assert np.allclose(regauge(g, scaled_t, base_s, base_t, base_s), chi * f, atol=1e-10)
        scaled_s = Realization.of(a, 0, p)
        g = canonical_intertwiner(base_t, scaled_s)
        assert np.allclose(regauge(g, base_t, scaled_s, base_t, base_s), chi * f, atol=1e-10)


def random_enhanced(rng, p):
    while True:
        s1, s2 = int(rng.integers(p)), int(rng.integers(p))
        if s1 or s2:
            return Realization.of(s1, s2, p)


def test_convolution_random_triples(rng):
    # includes transverse and shared-line configurations
    p = 11
    for _ in range(50):
        rn, rm, rl = (random_enhanced(rng, p) for _ in range(3))
        lhs = canonical_intertwiner(rn, rm) @ canonical_intertwiner(rm, rl)
        rhs = canonical_intertwiner(rn, rl)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_invariance_random_samples(rng):
    p = 7
    for _ in range(50):
        g = random_sl2(rng, p)
        rm, rl = random_enhanced(rng, p), random_enhanced(rng, p)
        gm, phase_m = geometric_action(rm, g)
        gl, phase_l = geometric_action(rl, g)
        f = canonical_intertwiner(rm, rl)
        conj = (phase_m[:, None] * f) * np.conj(phase_l)[None, :]
        assert np.allclose(conj, canonical_intertwiner(gm, gl), atol=1e-9)


def test_shared_line_route_through_auxiliary_is_independent():
    # the direct shared-line operator equals the composite through any
    # auxiliary transverse line
    p = 11
    src = Realization.of(0, 1, p)
    tgt = Realization.of(0, 4, p)
    direct = canonical_intertwiner(tgt, src)
    for aux_sigma in [(1, 0), (1, 3), (1, 7)]:
        aux = Realization.of(*aux_sigma, p)
        via = canonical_intertwiner(tgt, aux) @ canonical_intertwiner(aux, src)
        assert np.allclose(direct, via, atol=1e-9)


def test_change_realization_round_trip(rng):
    p = 7
    src = Realization.standard(p)
    tgt = Realization.of(1, 3, p)
    assert np.array_equal(canonical_intertwiner(src, src), np.eye(p))
    there = canonical_intertwiner(tgt, src)
    back = canonical_intertwiner(src, tgt)
    assert np.allclose(back @ there, np.eye(p), atol=1e-9)
    amps = rng.normal(size=(p, 100)) + 1j * rng.normal(size=(p, 100))
    norms = np.linalg.norm(amps, axis=0)
    assert np.allclose(np.linalg.norm(there @ amps, axis=0), norms, rtol=1e-9)


# ---------------------------------------------------------------------------
# the linearized SL2 action


def test_weil_identity_is_identity():
    for p in (5, 7):
        r = Realization.standard(p)
        assert np.allclose(weil_op(r, SympMatrix.identity(p)).matrix, np.eye(p), atol=1e-12)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_weil_multiplicativity(p, rng):
    r = Realization.standard(p)
    for _ in range(100):
        g1, g2 = random_sl2(rng, p), random_sl2(rng, p)
        lhs = weil_op(r, g1).matrix @ weil_op(r, g2).matrix
        rhs = weil_op(r, g1 * g2).matrix
        assert np.linalg.norm(lhs - rhs, 2) < 1e-9


def test_weil_multiplicativity_other_realization(rng):
    p = 7
    r = Realization.of(1, 4, p)
    for _ in range(100):
        g1, g2 = random_sl2(rng, p), random_sl2(rng, p)
        assert np.allclose(weil_op(r, g1).matrix @ weil_op(r, g2).matrix,
                           weil_op(r, g1 * g2).matrix, atol=1e-9)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_weil_entries_are_the_dense_operator_entry_by_entry(p, rng):
    # one element at a time on the full grid, and a batch on its diagonals
    # and on one column, in every realization and in a non-canonical gauge:
    # sigma = (2, 4) with tau on the line of (1, 1), where the canonical gauge
    # takes (1, 0); the batch holds the identity and -I, which keep every line
    y = np.arange(p)
    gs = [SympMatrix.identity(p), SympMatrix(-1, 0, 0, -1, p)]
    gs += [random_sl2(rng, p) for _ in range(6)]
    batch = tuple(np.array([getattr(g, e) for g in gs]) for e in "abcd")
    half = pow(2, -1, p)
    gauge = Realization(p, (2, 4), (half, half))
    for r in every_line(p) + [gauge]:
        dense = [weil_op(r, g).matrix for g in gs]
        for g, m in zip(gs, dense):
            entries = weil_entries(weil_chirps(r, (g.a, g.b, g.c, g.d)), y[:, np.newaxis], y)
            assert np.abs(entries - m).max() < 1e-14
        chirps = weil_chirps(r, batch)
        diagonals = weil_entries(chirps, y, y)
        assert np.abs(diagonals - [np.diag(m) for m in dense]).max() < 1e-14
        columns = weil_entries(chirps, y, 2)
        assert np.abs(columns - [m[:, 2] for m in dense]).max() < 1e-14


@pytest.mark.parametrize("p", [5, 7, 11])
def test_egorov_identity(p, rng):
    r = Realization.standard(p)
    for _ in range(25):
        g = random_sl2(rng, p)
        w = weil_op(r, g).matrix
        for h in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            lhs = w @ heisenberg_op(r, *h) @ w.conj().T
            rhs = heisenberg_op(r, *g.apply(h[:2]), h[2])
            assert np.linalg.norm(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# independent reconstruction of the action, and the commutant


def test_solver_agrees_with_weil_up_to_unit_scalar(rng):
    p = 7
    r = Realization.standard(p)
    for _ in range(100):
        g = random_sl2(rng, p)
        x = projective_egorov_solver(r, g)
        rho = weil_op(r, g).matrix / np.sqrt(p)
        lam = np.trace(rho.conj().T @ x)
        assert abs(abs(lam) - 1) < 1e-9
        assert np.abs(x - lam * rho).max() < 1e-9


def test_solver_identity_gives_scalars():
    p = 5
    r = Realization.standard(p)
    x = projective_egorov_solver(r, SympMatrix.identity(p))
    lam = np.trace(x) / p
    assert np.allclose(x, lam * np.eye(p), atol=1e-10)


def test_commutant_is_one_dimensional():
    for p in (5, 7, 13):
        for r in every_line(p):
            assert commutant_dimension(r) == 1


def test_commutant_of_a_commuting_pair_is_diagonal(monkeypatch):
    # with two copies of the first generator nothing ties u1's eigenlines
    # together: each of the p diagonal entries is free
    p = 7
    monkeypatch.setattr(models, "_heis_generators", lambda: [(1, 0, 0)] * 2)
    assert commutant_dimension(Realization.standard(p)) == p


def test_geometric_action_lands_in_translated_model(rng):
    # conjugating the source action by the geometric map gives the target action
    p = 7
    r = Realization.standard(p)
    for _ in range(20):
        g = random_sl2(rng, p)
        tgt, phases = geometric_action(r, g)
        h = random_heis(rng, p)
        lhs = (phases[:, None] * heisenberg_op(r, *h)) * np.conj(phases)[None, :]
        rhs = heisenberg_op(tgt, *g.apply(h[:2]), h[2])
        assert np.allclose(lhs, rhs, atol=1e-10)
