from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import apply_chirps_with_a_moved_eigenvalue
from oracles import (
    eig_spectrum,
    enhancement_ratio,
    every_line,
    fixed_lines,
    four_column_basis,
    orbit_move,
    split_closed_form,
    torus_powers,
)
from qcatlab.arith import legendre_symbol, primes_in, unit_roots
from qcatlab.groups import (
    CatMap,
    build_hecke_torus,
    classify_prime,
    line_index,
    torus_elements,
)
from qcatlab.hecke import (
    BASE_MASS_FLOOR,
    _along_torus,
    _character_basis,
    _half_diagonals,
    _mirror,
    _normalize_columns,
    _projector_columns,
    eigenfunction,
    hecke_spectrum,
    projector_column,
    torus_orbits,
    transport,
)
from qcatlab.models import Realization, _omega, weil_chirps, weil_entries, weil_op
from qcatlab.harness import supremum_records

A = CatMap(2, 1, 1, 1)


@pytest.fixture(scope="module")
def torus7():
    return build_hecke_torus(A, 7)


@pytest.fixture(scope="module")
def spectrum7(torus7):
    return hecke_spectrum(torus7, Realization.standard(7))


@pytest.fixture(scope="module")
def torus11():
    return build_hecke_torus(A, 11)


def torus_operators(torus, r):
    """rho(g^j) for j in [0, N), each built from its own torus element."""
    return np.array([weil_op(r, g).matrix for g in torus_powers(torus)])


def test_torus_operators_unitary_and_periodic(torus7):
    ops = torus_operators(torus7, Realization.standard(7))
    assert ops.shape == (8, 7, 7)
    for m in ops:
        assert np.allclose(m @ m.conj().T, np.eye(7), atol=1e-10)
    # rho(g)^N = rho(g^N) = identity
    acc = np.eye(7, dtype=complex)
    for _ in range(8):
        acc = ops[1] @ acc
    assert np.allclose(acc, np.eye(7), atol=1e-9)


def test_multiplicities_p7(spectrum7):
    mults = spectrum7.multiplicities()
    assert mults.sum() == 7
    # observed pattern at the inert prime 7: one empty character, the rest simple
    assert sorted(mults.tolist()) == [0, 1, 1, 1, 1, 1, 1, 1]
    assert not spectrum7.flagged.any()
    # the block is grouped by nondecreasing character, p orthonormal columns
    block = spectrum7.eigenfunctions
    assert (np.diff(block.characters) >= 0).all()
    assert np.allclose(block.vectors.conj().T @ block.vectors, 7 * np.eye(7), atol=1e-9)


def test_multiplicities_p11_split(torus11):
    spectrum = hecke_spectrum(torus11, Realization.standard(11))
    mults = spectrum.multiplicities()
    assert mults.sum() == 11
    assert sorted(mults.tolist()) == [1] * 9 + [2]
    assert (np.diff(spectrum.eigenfunctions.characters) >= 0).all()
    # orthonormal to rounding, the two-dimensional space included
    b = spectrum.eigenfunctions.vectors
    assert np.abs(b.conj().T @ b / 11 - np.eye(11)).max() <= 1e-12


@st.composite
def torus_and_line(draw):
    """Either cat map's torus at a non-ramified odd p <= 97 and the
    canonical realization of a drawn line."""
    matrix = draw(st.sampled_from([A, CatMap(3, 2, 1, 1)]))
    p = draw(st.sampled_from([p for p in primes_in(3, 97)
                              if classify_prime(matrix, p) != "ramified"]))
    return build_hecke_torus(matrix, p), draw(st.sampled_from(every_line(p)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(torus_and_line())
def test_multiplicities_follow_the_torus_law(case):
    # the N characters of the torus share p dimensions: at a split prime
    # (N = p - 1) one character appears twice, at an inert prime
    # (N = p + 1) one is absent, and every other appears once, in every
    # realization
    torus, r = case
    mult = hecke_spectrum(torus, r).multiplicities()
    n = torus.order
    assert mult.size == n and mult.sum() == r.p
    law = [1] * (n - 1) + [2] if torus.kind == "split" else [0] + [1] * (n - 1)
    assert sorted(mult.tolist()) == law


@pytest.mark.parametrize("p", [11, 13, 101, 103, 197, 199])
def test_spectrum_matches_schur_oracle(p):
    # an independent route: scipy's complex Schur form of rho(gen) is diagonal
    # up to rounding, and its columns binned by diagonal entry span the
    # character spaces.  Projectors B B^H / p compare without phases or a
    # choice of basis inside a degenerate space.
    from scipy.linalg import schur

    torus = build_hecke_torus(A, p)
    r = Realization.standard(p)
    n = torus.order
    t, z = schur(weil_op(r, torus.generator).matrix, output="complex")
    bins = np.rint(np.angle(np.diag(t)) * n / (2 * np.pi)).astype(np.int64) % n
    spectrum = hecke_spectrum(torus, r)
    assert (spectrum.multiplicities() == np.bincount(bins, minlength=n)).all()
    block = spectrum.eigenfunctions
    for k in np.flatnonzero(spectrum.multiplicities()).tolist():
        b = block.vectors[:, block.characters == k]
        s = z[:, bins == k]
        assert np.abs(b @ b.conj().T / p - s @ s.conj().T).max() <= 1e-12


@pytest.mark.parametrize("p", [7, 11])
def test_projectors_idempotent_and_orthogonal(p):
    # the projectors from their definition, independently of the spectrum's
    # eigendecomposition; p = 11 is split and has a two-dimensional space
    torus = build_hecke_torus(A, p)
    r = Realization.standard(p)
    n = torus.order
    ops = torus_operators(torus, r)
    roots = unit_roots(n)
    projectors = []
    for k in range(n):
        pk = sum(np.conj(roots[(k * j) % n]) * ops[j] for j in range(n)) / n
        projectors.append(pk)
        assert np.linalg.norm(pk @ pk - pk) < 1e-8
        assert np.linalg.norm(pk - pk.conj().T) < 1e-10
    for j in range(n):
        for k in range(j + 1, n):
            assert np.linalg.norm(projectors[j] @ projectors[k]) < 1e-8
    # the spectrum's k-columns span the projectors' ranges, and each residual
    # is its own columns' ||rho(gen) B - e_k B|| at unit norm
    spectrum = hecke_spectrum(torus, r)
    rho_gen = weil_op(r, torus.generator).matrix
    block = spectrum.eigenfunctions
    for k, pk in enumerate(projectors):
        basis = block.vectors[:, block.characters == k] / np.sqrt(p)
        multiplicity = spectrum.multiplicities()[k]
        assert round(np.trace(pk).real) == multiplicity
        assert np.linalg.matrix_rank(pk, tol=1e-8) == multiplicity
        assert np.linalg.norm(pk @ basis - basis) < 1e-8
        misfit = np.linalg.norm(rho_gen @ basis - roots[k] * basis)
        assert abs(spectrum.residuals[k] - misfit) < 1e-12


def test_eigenvector_property_every_torus_element(torus7, spectrum7):
    r = Realization.standard(7)
    n = torus7.order
    for k in np.flatnonzero(spectrum7.multiplicities() == 1).tolist():
        v = eigenfunction(spectrum7, k).vectors[:, 0]
        for j, g in enumerate(torus_powers(torus7)):
            lam = unit_roots(n)[(k * j) % n]
            assert np.linalg.norm(weil_op(r, g).matrix @ v - lam * v) < 1e-8


def test_eigenfunction_normalization_and_phase(spectrum7):
    for k in np.flatnonzero(spectrum7.multiplicities() == 1).tolist():
        v = eigenfunction(spectrum7, k).vectors[:, 0]
        assert abs(np.vdot(v, v).real - 7) < 1e-9
        lead = v[np.flatnonzero(np.abs(v) >= 1e-3 * np.abs(v).max())[0]]
        assert abs(lead.imag) < 1e-9 and lead.real > 0


def test_eigenfunction_empty_character_raises(spectrum7):
    empty = np.flatnonzero(spectrum7.multiplicities() == 0).tolist()
    assert len(empty) == 1
    with pytest.raises(ValueError):
        eigenfunction(spectrum7, empty[0])


def test_eigenvalue_between_roots_is_flagged(monkeypatch, torus7, spectrum7):
    # rho(gen) with character 7's eigenvalue moved halfway towards root 0 of
    # N = 8, injected through the residual's application of rho(gen): the tables
    # still give character 7 its true eigenvector, and the residual against
    # the wrong operator flags that character alone
    import qcatlab.hecke as hecke

    r = Realization.standard(7)
    fake, stand_in = apply_chirps_with_a_moved_eigenvalue(torus7, r, 7)
    monkeypatch.setattr(hecke, "_apply_chirps", stand_in)
    spectrum = hecke_spectrum(torus7, r)
    assert np.flatnonzero(spectrum.flagged).tolist() == [7]
    assert abs(spectrum.residuals[7] - 2 * np.sin(np.pi / 16)) < 1e-12
    block = spectrum.eigenfunctions
    for k in range(8):
        basis = block.vectors[:, block.characters == k] / np.sqrt(7)
        misfit = np.linalg.norm(fake @ basis - unit_roots(8)[k] * basis)
        assert abs(spectrum.residuals[k] - misfit) < 1e-12
    assert (spectrum.multiplicities() == spectrum7.multiplicities()).all()
    assert block.vectors.tobytes() == spectrum7.eigenfunctions.vectors.tobytes()


def test_nan_residuals_flag_every_nonempty_character(monkeypatch, torus7):
    # rho(gen) returning NaN checks no eigenvector equation: every character
    # with columns is flagged, and the empty one keeps its residual 0
    import qcatlab.hecke as hecke

    monkeypatch.setattr(hecke, "_apply_chirps",
                        lambda chirps, block: np.full_like(block, np.nan))
    spectrum = hecke_spectrum(torus7, Realization.standard(7))
    assert np.isnan(spectrum.residuals).sum() == 7
    assert spectrum.flagged.tolist() == (spectrum.multiplicities() > 0).tolist()


@pytest.mark.parametrize("matrix", ["2,1;1,1", "3,2;1,1"])
def test_spectrum_matches_eig_oracle(matrix):
    # every non-ramified p <= 199 in the defining realization, and every
    # realization for p <= 31: the same multiplicities, the same sup and
    # argmax on every simple character, the same character spaces, and each
    # residual equal to the dense operator's
    assert _compare_with_eig_oracle(CatMap.parse(matrix)) > 150


def _compare_with_eig_oracle(cat):
    checked = 0
    for p in primes_in(3, 199):
        if classify_prime(cat, p) == "ramified":
            continue
        torus = build_hecke_torus(cat, p)
        for r in every_line(p) if p <= 31 else [Realization.standard(p)]:
            spectrum, oracle = hecke_spectrum(torus, r), eig_spectrum(torus, r)
            rho_gen = weil_op(r, torus.generator).matrix
            roots = unit_roots(torus.order)
            assert not spectrum.flagged.any()
            assert (spectrum.multiplicities() == oracle.multiplicities()).all()
            ours, theirs = spectrum.eigenfunctions, oracle.eigenfunctions
            simple = ours.multiplicities == 1
            a, _ = supremum_records(ours.columns(simple), "any")
            b, _ = supremum_records(theirs.columns(simple), "any")
            assert np.array_equal(a["argmax"], b["argmax"])
            assert np.abs(a["sup"] - b["sup"]).max() <= 1e-9
            for k in np.flatnonzero(spectrum.multiplicities()).tolist():
                u = ours.vectors[:, ours.characters == k]
                v = theirs.vectors[:, theirs.characters == k]
                assert np.abs(u @ u.conj().T - v @ v.conj().T).max() / p <= 1e-12
                b = u / np.sqrt(p)
                misfit = np.linalg.norm(rho_gen @ b - roots[k] * b)
                assert abs(spectrum.residuals[k] - misfit) <= 1e-12
            checked += 1
    return checked


@pytest.mark.parametrize("scale, message", [
    (0.9, "traces miss the integers"),  # tr P_k = 0.9 m_k
    (1 + 1e-3j, "imaginary part"),  # real traces, complex point masses
])
def test_a_wrong_operator_table_raises(monkeypatch, torus7, scale, message):
    # every table entry scaled, through the one pass of chirp coefficients
    import qcatlab.hecke as hecke

    def scaled(*args, original=hecke.weil_chirps):
        chirps = original(*args)
        return chirps._replace(coef=scale * chirps.coef)
    monkeypatch.setattr(hecke, "weil_chirps", scaled)
    with pytest.raises(RuntimeError, match=message):
        hecke_spectrum(torus7, Realization.standard(7))


def test_a_base_point_without_mass_raises(monkeypatch, torus7):
    # odd eigenfunctions vanish at 0, so x = 0 alone cannot carry them; a
    # floor above every point mass sends every character to the pivoted path
    import qcatlab.hecke as hecke

    monkeypatch.setattr(hecke, "BASE_POINTS", 1)
    monkeypatch.setattr(hecke, "BASE_MASS_FLOOR", 7.0)
    with pytest.raises(RuntimeError, match="base point of mass 0"):
        hecke_spectrum(torus7, Realization.standard(7))


def test_degenerate_basis_follows_the_largest_diagonal():
    # the two-dimensional space at a split prime: its first vector is the
    # projector column at the base point of largest point mass, and the second
    # is orthogonal to it
    for p in (11, 19, 29, 31, 59, 61):
        torus = build_hecke_torus(A, p)
        r = Realization.standard(p)
        spectrum = hecke_spectrum(torus, r)
        (k,) = np.flatnonzero(spectrum.multiplicities() == 2).tolist()
        u, v = eigenfunction(spectrum, k).vectors.T
        masses = np.abs(u[:4]) ** 2 + np.abs(v[:4]) ** 2
        b = int(masses.argmax())
        # P_k delta_b = (u conj(u[b]) + v conj(v[b])) / p lies along u
        assert abs(v[b]) < 1e-12 and abs(np.vdot(u, v)) < 1e-12 * p


@pytest.mark.parametrize("matrix, p, sigma, k", [("3,2;1,1", 13, (0, 1), 6),
                                                   ("2,1;1,1", 11, (1, 0), 5)])
def test_tied_base_points_pivot_at_the_least(monkeypatch, matrix, p, sigma, k):
    # character k is two-dimensional, and its second unit vector v has equal
    # mass at the base points 2 and 3, so the tie rule picks its pivot: v is
    # P_k delta_2 less its part along the first vector u, normalised, whose
    # phase differs from the pivot 3's, and a 1e-15 nudge of either point
    # mass in the table, either way, leaves the basis bit for bit
    import qcatlab.hecke as hecke

    torus = build_hecke_torus(CatMap.parse(matrix), p)
    r = Realization.of(*sigma, p)
    labels, basis = _character_basis(torus, r)
    u, v = basis[:, labels == k].T
    assert abs(abs(v[2]) - abs(v[3])) < 1e-12

    def remainder(b):
        w = projector_column(torus, r, k, b)
        w = w - u * np.vdot(u, w)
        return w / np.linalg.norm(w)

    assert np.abs(v - remainder(2)).max() < 1e-12
    assert np.abs(v - remainder(3)).max() > 0.1
    expected = basis.tobytes()
    for x in (2, 3):
        for nudge in (1e-15, -1e-15):
            def nudged(half, x=x, nudge=nudge, original=hecke._mirror):
                diag = original(half)
                diag[:, x] += nudge
                return diag
            monkeypatch.setattr(hecke, "_mirror", nudged)
            assert _character_basis(torus, r)[1].tobytes() == expected


@pytest.mark.parametrize("matrix", [A, CatMap(3, 2, 1, 1)], ids=["2,1;1,1", "3,2;1,1"])
def test_basis_is_the_four_column_basis(matrix):
    # the column at x = 1 for simple characters against pivoted Gram-Schmidt
    # over four base columns for every character, degenerate columns
    # included: each column agrees to 1e-12 up to a unit phase.  With the
    # phase _normalize_columns fixes they agree to 1e-11 (4.7e-12 at worst):
    # the phase is read off the first entry of at least 1e-3 times the
    # column's largest, whose relative rounding stays near the largest's
    for p in primes_in(3, 199):
        if classify_prime(matrix, p) == "ramified":
            continue
        torus = build_hecke_torus(matrix, p)
        lines = every_line(p) if p <= 31 else every_line(p)[-1:]
        for r in lines:
            labels, basis = _character_basis(torus, r)
            expected_labels, expected = four_column_basis(torus, r)
            assert np.array_equal(labels, expected_labels), (p, r.sigma)
            u, v = _normalize_columns(basis, p), _normalize_columns(expected, p)
            assert np.abs(u - v).max() < 1e-11, (p, r.sigma)
            overlap = (v.conj() * u).sum(axis=0)
            assert np.abs(u - v * (overlap / np.abs(overlap))).max() < 1e-12, (p, r.sigma)


@pytest.mark.parametrize("matrix, p, k", [("2,1;1,1", 151, 142), ("3,2;1,1", 79, 39)])
def test_small_mass_at_one_takes_the_pivoted_path(monkeypatch, matrix, p, k):
    # a simple character with p P_k[1, 1] under the floor (6e-7 and 2e-7
    # here) takes its vector from the base point of largest mass instead,
    # as the four-column basis does, and so do the degenerate characters only
    import qcatlab.hecke as hecke

    torus = build_hecke_torus(CatMap.parse(matrix), p)
    r = Realization.standard(p)
    pivoted = []

    def recording(ch, ks, *args, original=hecke._pivoted_basis):
        pivoted.extend(ks.tolist())
        return original(ch, ks, *args)

    monkeypatch.setattr(hecke, "_pivoted_basis", recording)
    labels, basis = _character_basis(torus, r)
    (j,) = np.flatnonzero(labels == k)
    degenerate = np.flatnonzero(np.bincount(labels) > 1).tolist()
    assert sorted(pivoted) == sorted([k, *degenerate])
    assert p * abs(basis[1, j]) ** 2 < BASE_MASS_FLOOR
    v = basis[:, j] * np.sqrt(p)
    b = int(np.abs(v[:4]).argmax())
    assert b != 1 and _phase_gap(v, projector_column(torus, r, k, b)) < 1e-12
    _, expected = four_column_basis(torus, r)
    assert _phase_gap(v, expected[:, j]) < 1e-12


def test_degenerate_character_returns_flagged_basis(torus11):
    spectrum = hecke_spectrum(torus11, Realization.standard(11))
    (k,) = np.flatnonzero(spectrum.multiplicities() == 2).tolist()
    fn = eigenfunction(spectrum, k)
    assert fn.characters.tolist() == [k, k] and fn.multiplicities.tolist() == [2, 2]
    # extraction is a column selection: the block's k-columns bit for bit
    block = spectrum.eigenfunctions
    assert fn.vectors.tobytes() == block.vectors[:, block.characters == k].tobytes()
    gram = fn.vectors.conj().T @ fn.vectors
    assert np.allclose(gram, 11 * np.eye(2), atol=1e-8)


def test_transport_preserves_eigenvector_property(torus7, spectrum7):
    target = Realization.of(1, 3, 7)
    k = int(np.flatnonzero(spectrum7.multiplicities() == 1)[0])
    v = transport(eigenfunction(spectrum7, k), target).vectors[:, 0]
    assert abs(np.vdot(v, v).real - 7) < 1e-9
    lam = unit_roots(torus7.order)[k]
    resid = weil_op(target, torus7.generator).matrix @ v - lam * v
    assert np.linalg.norm(resid) < 1e-8


def test_transport_matches_direct_extraction(torus7, spectrum7):
    target = Realization.of(1, 2, 7)
    direct_spectrum = hecke_spectrum(torus7, target)
    for k in np.flatnonzero(spectrum7.multiplicities() == 1).tolist():
        moved = transport(eigenfunction(spectrum7, k), target)
        direct = eigenfunction(direct_spectrum, k)
        ov = np.vdot(direct.vectors[:, 0], moved.vectors[:, 0])
        assert abs(abs(ov) - 7) < 1e-8  # same line up to phase
        phase = ov / abs(ov)
        assert np.abs(moved.vectors[:, 0] - phase * direct.vectors[:, 0]).max() < 1e-8


def test_transport_moves_a_batch_like_one_at_a_time(torus11):
    spectrum = hecke_spectrum(torus11, Realization.standard(11))
    ks = np.flatnonzero(spectrum.multiplicities()).tolist()
    fn = eigenfunction(spectrum, *ks)
    target = Realization.of(1, 4, 11)
    moved = transport(fn, target)
    assert moved.realization == target
    assert moved.characters.tolist() == fn.characters.tolist()
    assert moved.multiplicities.tolist() == fn.multiplicities.tolist()
    assert 2 in fn.multiplicities
    for k in ks:
        part = moved.columns(moved.characters == k)
        assert part.characters.tolist() == [k] * spectrum.multiplicities()[k]
        alone = transport(eigenfunction(spectrum, k), target)
        assert np.abs(part.vectors - alone.vectors).max() < 1e-12
    empty = transport(eigenfunction(spectrum), target)
    assert empty.vectors.shape == (11, 0) and empty.characters.size == 0


@lru_cache(maxsize=None)
def _defining_block(matrix, p):
    return hecke_spectrum(build_hecke_torus(matrix, p), Realization.standard(p)).eigenfunctions


@st.composite
def moved_defining_block(draw):
    """A cat map, a non-ramified odd prime p <= 97, and the defining block of
    every eigenfunction at p moved to any of the p + 1 lines."""
    matrix = draw(st.sampled_from([A, CatMap(3, 2, 1, 1)]))
    p = draw(st.sampled_from([p for p in primes_in(3, 97)
                              if classify_prime(matrix, p) != "ramified"]))
    fn, target = _defining_block(matrix, p), draw(st.sampled_from(every_line(p)))
    return classify_prime(matrix, p), fn if target == fn.realization else transport(fn, target)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(moved_defining_block())
def test_block_records_are_its_characters_records(case):
    # the sweep scores a realization's whole block in one pass: its rows and
    # ties are those of each character's columns scored alone, field for field
    kind, block = case
    records, ties = supremum_records(block, kind)
    alone = [supremum_records(block.columns(block.characters == k), kind)
             for k in np.unique(block.characters).tolist()]
    assert records.tolist() == np.concatenate([rows for rows, _ in alone]).tolist()
    assert np.array_equal(ties, np.hstack([tied for _, tied in alone]))


# ---------------------------------------------------------------------------
# torus orbits of the lines


def _torus_image(torus, j, r):
    """(l, e): the line l of line_sigmas holding g^j sigma_r, and the e with
    g^j sigma_r = e sigma_l, by repeated products and a search of the lines."""
    u = torus_powers(torus)[j].apply(r.sigma)
    for l, line in enumerate(every_line(torus.p)):
        if line_index(*line.sigma, torus.p) == line_index(*u, torus.p):
            return l, enhancement_ratio(u, line.sigma, torus.p)


@pytest.mark.parametrize("matrix", [A, CatMap(3, 2, 1, 1)], ids=["2,1;1,1", "3,2;1,1"])
def test_torus_orbits_against_repeated_products(matrix):
    for p in primes_in(3, 31):
        kind = classify_prime(matrix, p)
        if kind == "ramified":
            continue
        torus = build_hecke_torus(matrix, p)
        rep, dilation = torus_orbits(torus)
        lines = every_line(p)
        # each representative's walk: the least power reaching a line gives
        # its dilation
        walks = {r: [_torus_image(torus, j, lines[r]) for j in range(torus.order)]
                 for r in set(rep.tolist())}
        for l in range(p + 1):
            assert next(image for image in walks[rep[l]] if image[0] == l) == (l, dilation[l])
        reps, sizes = np.unique(rep, return_counts=True)
        # each representative is its orbit's last line, with dilation 1; the
        # defining line (0, 1) is enumerated last
        assert rep.max() == p and (reps == [np.flatnonzero(rep == r).max() for r in reps]).all()
        assert (dilation[reps] == 1).all()
        expected = {"inert": [(p + 1) // 2] * 2, "split": [1, 1] + [(p - 1) // 2] * 2}[kind]
        assert sorted(sizes.tolist()) == sorted(expected)


@st.composite
def torus_element_and_line(draw):
    """A cat map, a non-ramified odd prime p <= 97, a power j of the torus
    generator and any of the p + 1 lines."""
    matrix = draw(st.sampled_from([A, CatMap(3, 2, 1, 1)]))
    p = draw(st.sampled_from([p for p in primes_in(3, 97)
                              if classify_prime(matrix, p) != "ramified"]))
    torus = build_hecke_torus(matrix, p)
    return matrix, torus, draw(st.integers(0, torus.order - 1)), draw(
        st.sampled_from(every_line(p)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(torus_element_and_line())
def test_torus_element_moves_moduli_by_its_dilation(case):
    # |transport(fn, t.r)[y]| = |transport(fn, r)[e y]|, with t.r the line of
    # t sigma_r and t sigma_r = e sigma_{t.r}: what the sweep's derived rows
    # rest on, degenerate columns included
    matrix, torus, j, r = case
    p = torus.p
    l, e = _torus_image(torus, j, r)
    fn = _defining_block(matrix, p)
    here = np.abs(transport(fn, r).vectors)
    there = np.abs(transport(fn, every_line(p)[l]).vectors)
    assert np.abs(there - here[e * np.arange(p) % p]).max() < 1e-12


def _phase_gap(v, w):
    """max |v - c w| over unit c, with w first rescaled to v's norm."""
    w = w * (np.linalg.norm(v) / np.linalg.norm(w))
    overlap = np.vdot(w, v)
    return np.abs(v - overlap / abs(overlap) * w).max()


def test_orbit_move_is_transport_up_to_phase():
    p = 13
    torus = build_hecke_torus(A, p)
    fn = _defining_block(A, p)
    rep, _ = torus_orbits(torus)
    lines = every_line(p)
    for l in np.flatnonzero(rep != np.arange(p + 1)).tolist():
        source = transport(fn, lines[rep[l]])
        j = next(j for j in range(torus.order)
                 if _torus_image(torus, j, lines[rep[l]])[0] == l)
        moved = orbit_move(source, torus, j, lines[l])
        direct = transport(fn, lines[l])
        for i in range(fn.characters.size):
            assert _phase_gap(direct.vectors[:, i], moved.vectors[:, i]) < 1e-12
    with pytest.raises(ValueError, match="off the line"):
        orbit_move(fn, torus, 1, lines[0])


@pytest.mark.parametrize("matrix", [A, CatMap(3, 2, 1, 1)], ids=["2,1;1,1", "3,2;1,1"])
def test_projector_column_is_the_spectrum_vector(matrix):
    # one column of P_k at the point of largest modulus re-extracts a simple
    # character without a spectrum: it is the spectrum's vector up to phase,
    # while the column of another character is orthogonal to it
    rng = np.random.default_rng(4)
    for p in primes_in(3, 199):
        if classify_prime(matrix, p) == "ramified":
            continue
        torus = build_hecke_torus(matrix, p)
        r = every_line(p)[rng.integers(p + 1)]
        spectrum = hecke_spectrum(torus, r)
        simple = np.flatnonzero(spectrum.multiplicities() == 1)
        for k in rng.choice(simple, size=2, replace=False).tolist():
            v = eigenfunction(spectrum, k).vectors[:, 0]
            b = int(np.abs(v).argmax())
            column = projector_column(torus, spectrum.eigenfunctions.realization, k, b)
            assert _phase_gap(v, column) < 1e-9, (p, r.sigma, k)
            other = projector_column(torus, spectrum.eigenfunctions.realization, k + 1, b)
            assert abs(np.vdot(v, other)) < 1e-9


@st.composite
def torus_and_lines(draw):
    """A cat map, its torus at a non-ramified odd prime p <= 97, and lines:
    all p + 1 for p <= 31; above that one drawn line and the lines the cat
    map fixes, where every torus element keeps the line."""
    matrix = draw(st.sampled_from([A, CatMap(3, 2, 1, 1)]))
    p = draw(st.sampled_from([p for p in primes_in(3, 97)
                              if classify_prime(matrix, p) != "ramified"]))
    torus = build_hecke_torus(matrix, p)
    lines = every_line(p)
    if p > 31:
        lines = [draw(st.sampled_from(lines))] + fixed_lines(torus)
    return torus, lines


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(torus_and_lines())
def test_tables_are_the_weil_entries(case):
    # the tables _character_basis transforms, against weil_entries evaluated
    # at every point: the half diagonal mirrored is the full diagonal bit for
    # bit (its exponent is the same integer at x and p - x), and the
    # torus-weighted sums of the columns at b = 0..3 are the rows of their
    # FFT along the torus
    torus, lines = case
    y = np.arange(torus.p)
    ks = np.arange(torus.order)
    for r in lines:
        chirps = weil_chirps(r, torus_elements(torus))
        assert np.array_equal(_mirror(_half_diagonals(chirps)), weil_entries(chirps, y, y))
        for b in y[:4].tolist():
            # sums of N unit-modulus terms over N: rounding at most about
            # 1e-16, against about 1 / N for a wrong weight
            fft = _along_torus(weil_entries(chirps, y, b))
            assert np.abs(_projector_columns(chirps, ks, b) - fft).max() < 1e-14


# ---------------------------------------------------------------------------
# split closed form


def test_adapted_realization_lines_are_torus_fixed(torus11):
    r = split_closed_form(torus11).realization
    for g in torus_powers(torus11):
        assert _omega(*g.apply(r.sigma), *r.sigma, 11) == 0
        assert _omega(*g.apply(r.tau), *r.tau, 11) == 0
    # the first and second lines of line_sigmas that A mod 11 fixes, found
    # by testing each line
    first, second = [line.sigma for line in every_line(11)
                     if _omega(*torus11.matrix.apply(line.sigma), *line.sigma, 11) == 0]
    assert r.sigma == first and _omega(*r.tau, *second, 11) == 0


def test_adapted_realization_needs_split(torus7):
    with pytest.raises(ValueError):
        split_closed_form(torus7)


def test_closed_form_values(torus11):
    p = 11
    v = split_closed_form(torus11).vectors
    assert v.shape == (p, p - 1)
    assert np.all(v[0] == 0)
    scale = np.sqrt(p / (p - 1.0))
    assert np.allclose(np.abs(v[1:]), scale, atol=1e-12)
    assert np.allclose(np.linalg.norm(v, axis=0) ** 2, p, atol=1e-9)
    # real positive at x = 1, so the block already meets the normalisation
    assert np.all(v[1] == scale)
    # column 0 is the Legendre symbol, and each column over its value at 1 is
    # a character of F_p*
    assert np.allclose(v[:, 0], [legendre_symbol(x, p) * scale for x in range(p)], atol=1e-12)
    for x in range(1, p):
        for y in range(1, p):
            assert np.allclose(v[x * y % p] * scale, v[x] * v[y], atol=1e-12)


def test_closed_form_is_torus_eigenvector(torus11):
    fn = split_closed_form(torus11)
    assert fn.characters.tolist() == list(range(torus11.order))
    lam = unit_roots(torus11.order)[fn.characters]
    w = weil_op(fn.realization, torus11.generator).matrix
    assert np.abs(w @ fn.vectors - fn.vectors * lam).max() < 1e-9


def test_closed_form_matches_numeric_extraction(torus11):
    fn = split_closed_form(torus11)
    n = torus11.order
    # labels are 0..N-1, each once
    assert sorted(fn.characters.tolist()) == list(range(n))
    spectrum = hecke_spectrum(torus11, fn.realization)
    mults = spectrum.multiplicities()
    # every character occurs; the Legendre-constant column (-1)^j exp(pi i j)
    # = 1 lands in the one two-dimensional space, k = N/2
    assert np.flatnonzero(mults == 2).tolist() == [n // 2] and mults.min() == 1
    for k in range(n):
        col = fn.vectors[:, k]
        num = eigenfunction(spectrum, k).vectors
        if mults[k] != 1:
            assert np.allclose(col, col[1] * (np.arange(11) > 0), atol=1e-12)
            # the column lies in the spectrum's space for k
            assert np.linalg.norm(col - num @ (num.conj().T @ col) / 11) < 1e-9
            continue
        ov = np.vdot(num[:, 0], col)
        assert np.abs(col - ov / abs(ov) * num[:, 0]).max() < 1e-8


@pytest.mark.parametrize("matrix", ["2,1;1,1", "3,2;1,1"])
def test_point_mass_at_zero_is_the_double_character_on_fixed_lines(matrix):
    """In the canonical realization of a line the cat map fixes, the torus
    scales coordinates, so rho(generator) sends delta_0 to a multiple of
    delta_0; that multiple's character is the only one of multiplicity two,
    which is why the sweep's multiplicity-two rows contain a sup of sqrt(p)."""
    A = CatMap.parse(matrix)
    tags = {}
    for p in primes_in(7, 61):
        if classify_prime(A, p) != "split":
            continue
        torus = build_hecke_torus(A, p)
        n = torus.order
        fixed = fixed_lines(torus)
        assert len(fixed) == 2
        for r in fixed:
            image = weil_op(r, torus.generator).matrix[:, 0]
            c = image[0]
            assert abs(abs(c) - 1) < 1e-12 and np.abs(image[1:]).max() < 1e-12
            k = int(np.rint(np.angle(c) * n / (2 * np.pi))) % n
            assert abs(c - unit_roots(n)[k]) < 1e-9
            mults = hecke_spectrum(torus, r).multiplicities()
            assert np.flatnonzero(mults == 2).tolist() == [k]
            tags.setdefault(p, []).append(r.tag())
    assert len(tags) == 7 and sum(map(len, tags.values())) == 14
    if matrix == "2,1;1,1":
        # the realizations the README names
        assert tags[11] == ["1:3", "1:7"]
        assert tags[19] == ["1:4", "1:14"]
        assert tags[29] == ["1:5", "1:23"]
