"""Character decomposition of the torus action on a model and eigenfunction
extraction.

The torus is cyclic of order N, with generator g, and the entries of every
g^j come from one cached walk, groups.torus_elements.  Its character spaces are
the ranges of the projectors P_k = (1/N) sum_j conj(chi_k(g^j)) rho(g^j), the
function-level shadow of the paper's torus sums of Weil-representation
kernels.  Every entry of rho(g^j) has a closed form, a chirp whose
coefficients models.weil_chirps reads once per (prime, realization) for the
whole torus, so one FFT along j of the O(p)-cost diagonals gives every point
mass, and one of the columns at x = 1 gives every simple character's
vector, P_k delta_1 / sqrt(P_k[1, 1]), with no eigensolver.  The diagonal
depends on x only through x^2, so half of it is evaluated and mirrored.  A
degenerate space, or a simple one with too little mass at 1, gets a basis
fixed by rule from the columns at the base points 0..3, each one
torus-weighted sum, which projector_column also reads.  The residual
applies rho(g) to the whole basis by models._apply_chirps, one FFT between
chirps, from the same weil_chirps form the tables evaluate entry by entry:
it checks that application against the entry evaluation, and the
eigenvector equation, but not a chirp coefficient wrong in both routes, which
models._validate_family and the tests' dense oracles catch.  Eigenfunctions
travel as one block per realization: a (p, n) matrix whose columns are
labelled by character, which `transport` carries to another realization
with one application of the canonical intertwiner (models.intertwine, an
FFT between chirps).  The intertwiners commute with the torus, so a block
needs carrying only to one line per torus orbit (torus_orbits): on every
other line of the orbit its moduli are the representative's, relabelled by
a dilation y -> e y, which the sweep's verify step checks on a drawn line
by transporting the block there directly.  The spectrum is itself such a
block with n = p: every eigenvector, grouped by character and normalized
once, so a character's multiplicity is the count of its label and
extracting characters selects columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import unit_roots
from .groups import HeckeTorus, line_index, line_sigmas, torus_elements
from .models import (
    Realization,
    WeilChirps,
    _apply_chirps,
    _canonical_tau,
    _omega,
    intertwine,
    weil_chirps,
    weil_entries,
)

__all__ = [
    "HeckeSpectrum",
    "HeckeEigenfunction",
    "hecke_spectrum",
    "eigenfunction",
    "transport",
    "torus_orbits",
    "projector_column",
]

# the points x = 0..3 whose projector columns give the eigenvectors that the
# column at x = 1 does not: 0 holds delta_0's space on a fixed line, and odd
# eigenfunctions, which vanish at 0, still have three points
BASE_POINTS = 4
# tr P_k misses its integer by rounding, at most 2.7e-15 for p <= 1013 and
# growing like sqrt(p) at most; one wrong operator in the table moves it by
# order 1/N, so 1e-6 parts the two for p < 1e5
TRACE_TOL = 1e-6
# P_k is Hermitian: rounding leaves p |Im P_k[x, x]| below 7.1e-15 for
# p <= 1013, with no growth seen in p, against order 1 for a non-unitary table
MASS_IMAG_TOL = 1e-6
# a projector column at a point of mass c / p gives an eigenvector with
# rounding about 1e-16 sqrt(p / c) per entry at norm sqrt(p), so c >= 1e-6
# holds sups to 1e-9 for p < 1e8.  The column at x = 1 is used down to this
# floor: the least c used there, for p < 100 in every realization of either
# map, is 1.1e-6 (1.0e-6 in the defining realization for p < 1100), and the
# least at a base-point pivot is 0.22 (0.071)
BASE_MASS_FLOOR = 1e-6
# base points whose masses c / p lie within PIVOT_TIE_TOL / p of the largest
# are tied, and the least of them is the pivot: two roundings of the tables
# (per entry and by the chirp coefficients) move c by at most 3.0e-15 for
# p <= 1009, growing slowly with p (7.5e-16 at p = 13), so exact ties stay
# tied far beyond any p used, and any point within 1e-9 of the largest mass
# is as good a pivot
PIVOT_TIE_TOL = 1e-9


@dataclass
class HeckeEigenfunction:
    """One realization's eigenvectors for whole character spaces.

    Column j of vectors lies in the space of character characters[j]; the
    columns of one character form a basis of its space, each rescaled to
    squared norm p with its first amplitude of modulus at least 1e-3 times
    its largest made real positive.
    """

    realization: Realization
    vectors: np.ndarray  # (p, n)
    characters: np.ndarray  # (n,) torus character index of each column

    @property
    def p(self) -> int:
        return self.realization.p

    @property
    def multiplicities(self) -> np.ndarray:
        """Each column's character multiplicity: how many columns share it."""
        return np.bincount(self.characters)[self.characters]

    def columns(self, index) -> HeckeEigenfunction:
        """The block of the columns a boolean mask or an index array picks."""
        return HeckeEigenfunction(self.realization, self.vectors[:, index],
                                  self.characters[index])


@dataclass
class HeckeSpectrum:
    """The torus decomposition of one model, as one labelled eigenbasis.

    eigenfunctions holds p orthonormal eigenvectors of the torus, rescaled to
    squared norm p and grouped by nondecreasing character; residuals[k] is
    ||rho(gen) B - exp(2 pi i k / N) B|| for the columns B of character k.
    """

    torus: HeckeTorus
    eigenfunctions: HeckeEigenfunction
    residuals: np.ndarray  # (N,)

    @property
    def p(self) -> int:
        return self.eigenfunctions.p

    @property
    def flagged(self) -> np.ndarray:
        """Per character: its columns miss the eigenvector equation, or their
        residual is NaN.  An empty character has residual 0: never flagged."""
        # the FFT residual's rounding grows slowly with p (at most 6.2e-15 for
        # p <= 199 with either map, 5.6e-15 at p = 1009), and an eigenvalue halfway
        # between roots leaves about pi / N >= pi / (p + 1): 1e-7 p parts them
        # for p < 5000
        return ~(self.residuals <= 1e-7 * self.p)

    def multiplicities(self) -> np.ndarray:
        """Per character: how many columns of the block carry it."""
        return np.bincount(self.eigenfunctions.characters, minlength=self.torus.order)


def _normalize_columns(basis: np.ndarray, p: int) -> np.ndarray:
    """Each column rescaled to squared norm p with its first entry of modulus
    at least 1e-3 times the column's largest made real positive: far above
    rounding, so every route to a vector picks the same entry."""
    v = basis * (np.sqrt(p) / np.linalg.norm(basis, axis=0))
    mags = np.abs(v)
    lead = v[np.argmax(mags >= 1e-3 * mags.max(axis=0), axis=0), np.arange(v.shape[1])]
    v *= np.abs(lead) / lead
    return v


def _along_torus(table: np.ndarray) -> np.ndarray:
    """table with row k replaced by (1/N) sum_j conj(chi_k(g^j)) table[j]:
    one FFT along j in place, since numpy's FFT weights entry j of character
    k by exp(-2 pi i k j / N) = conj(chi_k(g^j)), and its forward norm
    divides by N."""
    return np.fft.fft(table, axis=0, norm="forward", out=table)


def _half_diagonals(ch: WeilChirps) -> np.ndarray:
    """(N, (p + 1) / 2): rho(g^j)[x, x] for x = 0..(p - 1) / 2.  Every entry
    of a diagonal, the shared-line elements' included, depends on x only
    through x^2, so _mirror gives the rest."""
    x = np.arange((ch.p + 1) // 2)
    return weil_entries(ch, x, x)


def _mirror(half: np.ndarray) -> np.ndarray:
    """Rows of a function of x^2 on x = 0..(p - 1) / 2 extended to
    x = 0..p - 1, by its value at p - x."""
    return np.concatenate([half, half[:, :0:-1]], axis=1)


def _projector_columns(ch: WeilChirps, ks: np.ndarray, b: int) -> np.ndarray:
    """(len(ks), p): P_k delta_b = (1/N) sum_j conj(chi_k(g^j)) rho(g^j)[:, b]
    for each character k of ks, one torus-weighted sum of the columns of
    rho(g^j) at b.  einsum sums the products itself, with no BLAS call, so
    the columns do not depend on the BLAS thread count."""
    n = np.size(ch.coef)
    weights = unit_roots(n)[np.outer(-ks, np.arange(n)) % n] / n
    return np.einsum("kj,jy->ky", weights, weil_entries(ch, np.arange(ch.p), b))


def _pivoted_basis(ch: WeilChirps, ks: np.ndarray, mass: np.ndarray,
                   mult: np.ndarray) -> np.ndarray:
    """(max(mult), K, p): unit vectors for the K characters ks, of
    multiplicities mult (K,) and point masses mass[:, b] = P_k[b, b] at the
    base points b < BASE_POINTS.

    Pivoted Gram-Schmidt: the i-th vector of character k is P_k delta_b at
    the base point b of largest remaining mass (the least b among masses tied
    to PIVOT_TIE_TOL / p), less its part along the vectors already chosen,
    normalised.  Raises when a chosen base point has too little mass.
    """
    p, count = ch.p, mass.shape[1]
    units = np.zeros((int(mult.max()), mult.size, p), dtype=np.complex128)
    for i in range(units.shape[0]):
        live = np.flatnonzero(mult > i)
        prev = units[:i][:, live]  # (i, K, p): the vectors already chosen
        left = mass[live] - (np.abs(prev[:, :, :count]) ** 2).sum(axis=0)
        pivot = (left >= left.max(axis=1, keepdims=True) - PIVOT_TIE_TOL / p).argmax(axis=1)
        least = p * left[np.arange(live.size), pivot].min()
        if not least >= BASE_MASS_FLOOR:
            raise RuntimeError(f"a base point of mass {least:.3g} / p carries an eigenvector")
        col = np.empty((live.size, p), dtype=np.complex128)
        for b in sorted(set(pivot.tolist())):
            col[pivot == b] = _projector_columns(ch, ks[live[pivot == b]], b)
        if i:
            at_pivot = np.conj(prev[:, np.arange(live.size), pivot])  # (i, K)
            col -= (prev * at_pivot[:, :, np.newaxis]).sum(axis=0)
        col /= np.linalg.norm(col, axis=1, keepdims=True)
        units[i, live] = col
    return units


def _character_basis(torus: HeckeTorus, r: Realization) -> tuple[np.ndarray, np.ndarray]:
    """(labels, basis): p nondecreasing character labels and p orthonormal
    columns, column j in the space of character labels[j].

    One pass of models.weil_chirps reads the chirp coefficients of every
    rho(g^j).  One FFT along j of their diagonals gives every P_k[x, x]: it
    runs over x = 0..(p - 1) / 2 and is mirrored, since a diagonal depends
    on x only through x^2.  Character k has multiplicity round(tr P_k).  A
    simple character's vector is its projector column at x = 1, P_k delta_1,
    scaled by 1 / sqrt(P_k[1, 1]), the column's norm: one FFT along j of the
    columns rho(g^j)[:, 1] gives all of them.  Degenerate characters, and
    simple ones with p P_k[1, 1] < BASE_MASS_FLOOR, take the pivoted
    Gram-Schmidt of _pivoted_basis over the base points, each column it
    needs one torus-weighted sum.  Raises when a trace is not an integer,
    the multiplicities are not a partition of p, a point mass has an
    imaginary part or a chosen base point has too little mass.
    """
    p, n = r.p, torus.order
    ch = weil_chirps(r, torus_elements(torus))
    x = np.arange(p)
    diag = _mirror(_along_torus(_half_diagonals(ch)))  # [k, x] = P_k[x, x]
    trace = diag.real.sum(axis=1)
    mult = np.rint(trace).astype(np.int64)
    off = np.abs(trace - mult).max()
    if not off <= TRACE_TOL or mult.min() < 0 or mult.sum() != p:
        raise RuntimeError(f"torus projector traces miss the integers by {off:.3g}, "
                           f"or round to multiplicities {mult.tolist()} that are not "
                           f"a partition of p = {p}")
    imag = p * np.abs(diag.imag).max()
    if not imag <= MASS_IMAG_TOL:
        raise RuntimeError(f"point masses p P_k[x, x] have imaginary part {imag:.3g}")
    mass = diag.real[:, :BASE_POINTS].copy()  # [k, b] = P_k[b, b]
    at_one = diag.real[:, 1].copy()  # P_k[1, 1]
    del diag  # the table goes before the column table at x = 1
    direct = (mult == 1) & (p * at_one >= BASE_MASS_FLOOR)
    ones = _along_torus(weil_entries(ch, x, 1))  # [k] = P_k delta_1
    # P_k delta_1 is P_k[1, 1] at 1, real: its computed imaginary part is
    # rounding, and would set the vector's phase when that mass is small
    ones[:, 1] = at_one
    ones /= np.sqrt(np.where(direct, at_one, 1.0))[:, np.newaxis]
    labels = np.repeat(np.arange(n), mult)
    units = ones[labels]  # row i: the i-th basis vector, when direct
    del ones
    pivoted = np.flatnonzero((mult > 0) & ~direct)
    if pivoted.size:
        first = np.cumsum(mult) - mult  # each character's first row
        rest = _pivoted_basis(ch, pivoted, mass[pivoted], mult[pivoted])
        for i, vectors in enumerate(rest):
            live = mult[pivoted] > i
            units[first[pivoted[live]] + i] = vectors[live]
    return labels, units.T


def hecke_spectrum(torus: HeckeTorus, r: Realization) -> HeckeSpectrum:
    """Decompose the model of r into torus character spaces.

    The basis comes from projector tables over the torus (_character_basis),
    with no eigensolver.  rho(gen) then checks it, applied to the whole basis
    from its own weil_chirps by models._apply_chirps, in O(p^2 log p): a
    character whose columns B miss the eigenvector equation,
    ||rho(gen) B - exp(2 pi i k / N) B|| > 1e-7 p, is flagged.
    """
    n, g = torus.order, torus.generator
    characters, z = _character_basis(torus, r)
    rho_z = _apply_chirps(weil_chirps(r, (g.a, g.b, g.c, g.d)), z)
    rho_z -= z * unit_roots(n)[characters]
    misfit = np.linalg.norm(rho_z, axis=0)
    del rho_z  # before _normalize_columns, to bound the peak at three p x p arrays
    residuals = np.sqrt(np.bincount(characters, weights=misfit ** 2, minlength=n))
    block = HeckeEigenfunction(r, _normalize_columns(z, r.p), characters)
    return HeckeSpectrum(torus, block, residuals)


def eigenfunction(spectrum: HeckeSpectrum, *ks: int) -> HeckeEigenfunction:
    """The normalized eigenfunctions of characters ks, as one block.

    Every character contributes all of its columns of the spectrum, in the
    order given.  Raises for an empty character space.
    """
    block, n = spectrum.eigenfunctions, spectrum.torus.order
    cols = [np.flatnonzero(block.characters == k % n) for k in ks]
    for k, c in zip(ks, cols):
        if not c.size:
            raise ValueError(f"character {k % n} does not occur in the model")
    return block.columns(np.concatenate([np.empty(0, dtype=np.int64), *cols]))


def transport(fn: HeckeEigenfunction, target: Realization) -> HeckeEigenfunction:
    """Carry a realization's eigenfunctions to another realization.

    The canonical intertwiner depends only on the two realizations, so one
    application moves every column, with no p x p matrix.  It commutes with
    the torus action, so each image is again an eigenfunction for its
    character; it is unitary, so only the leading-phase convention needs
    re-applying.  Commuting with the torus also means that the sweep carries
    a block only to each torus orbit's representative (torus_orbits): the
    moduli on the orbit's other lines follow from those by a dilation.
    """
    moved = intertwine(target, fn.realization, fn.vectors)
    return HeckeEigenfunction(target, _normalize_columns(moved, fn.p), fn.characters)


def torus_orbits(torus: HeckeTorus) -> tuple[np.ndarray, np.ndarray]:
    """(rep, dilation): for each line l of line_sigmas, the index
    rep[l] of its torus orbit's representative and the e = dilation[l] with
    g^j sigma_rep = e sigma_l for the least power j with g^j sigma_rep on l,
    that is omega(tau_l, g^j sigma_rep) in l's canonical gauge.

    For t = g^j the canonical intertwiners satisfy
    F_{t.rep <- s} = geo(t) F_{rep <- s} rho_s(t)^-1, where geo(t) has unit
    phases and rho_s(t)^-1 is the scalar conj(chi_k(t)) on character k's
    columns; the shared-line change from t.rep's gauge to l's reads the
    point e y.  So every column carried to l has the moduli of its image on
    rep, relabelled: |F_{l <- s} v|(y) = |F_{rep <- s} v|(e y mod p).
    Each orbit is represented by its last line in enumeration order, so the
    position model's line (0, 1), enumerated last, represents its own; a
    representative has dilation 1.
    """
    p = torus.p
    a, b, c, d = torus_elements(torus)
    s1, s2 = line_sigmas(p)
    t1, t2 = _canonical_tau(s1, s2, p)
    rep = np.full(p + 1, -1)
    dilation = np.ones(p + 1, dtype=np.int64)
    while (rep < 0).any():
        r = int(np.flatnonzero(rep < 0)[-1])
        u1, u2 = (a * s1[r] + b * s2[r]) % p, (c * s1[r] + d * s2[r]) % p
        # the least power reaching each line of the orbit: 0 for r itself
        lines, j = np.unique(line_index(u1, u2, p), return_index=True)
        rep[lines] = r
        dilation[lines] = _omega(t1[lines], t2[lines], u1[j], u2[j], p)
    return rep, dilation


def projector_column(torus: HeckeTorus, r: Realization, k: int, b: int) -> np.ndarray:
    """P_k delta_b = (1/N) sum_j conj(chi_k(g^j)) rho(g^j)[:, b] in the model
    of r: the torus-weighted sum _character_basis reads at its base points,
    here at any b and with no spectrum.  For a simple character it is the
    eigenvector v times conj(v(b)) / p at squared norm p, so a base point b
    where |v| is largest gives it with the least relative rounding."""
    ch = weil_chirps(r, torus_elements(torus))
    return _projector_columns(ch, np.array([k % torus.order]), b)[0]
