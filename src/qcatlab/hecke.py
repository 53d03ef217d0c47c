"""Character decomposition of the torus action on a model and eigenfunction
extraction.

The torus is cyclic of order N, with generator g.  Its character spaces are
the ranges of the projectors P_k = (1/N) sum_j conj(chi_k(g^j)) rho(g^j), the
function-level shadow of the paper's torus sums of Weil-representation
kernels.  Every entry of rho(g^j) has a closed form (models.weil_entries), so
one FFT along j of O(p)-cost diagonals and columns gives every point mass and
every basis vector, with no eigensolver; a degenerate space gets a basis
fixed by rule.  The residual that checks the eigenvector equation applies
rho(g) as the canonical intertwiner from the model of g.r composed with its
geometric phases, one FFT for the whole basis, so it shares no entry formula
with the tables.  Eigenfunctions travel as one block per realization:
a (p, n) matrix whose columns are labelled by character, which `transport`
carries to another realization with one application of the canonical
intertwiner (models.intertwine, an FFT between chirps).  The spectrum is
itself such a block with n = p: every eigenvector, grouped by character and
normalized once, so a character's multiplicity is the count of its label
and extracting characters selects columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import unit_roots
from .groups import HeckeTorus
from .models import Realization, geometric_action, intertwine, weil_entries

__all__ = [
    "HeckeSpectrum",
    "HeckeEigenfunction",
    "hecke_spectrum",
    "eigenfunction",
    "transport",
]

# the points x = 0..3 whose projector columns give the eigenvectors: 0 holds
# delta_0's space on a fixed line, and odd eigenfunctions, which vanish at 0,
# still have three points
BASE_POINTS = 4
# tr P_k misses its integer by rounding, at most 2.7e-15 for p <= 1013 and
# growing like sqrt(p) at most; one wrong operator in the table moves it by
# order 1/N, so 1e-6 parts the two for p < 1e5
TRACE_TOL = 1e-6
# P_k is Hermitian: rounding leaves p |Im P_k[x, x]| below 7.1e-15 for
# p <= 1013, with no growth seen in p, against order 1 for a non-unitary table
MASS_IMAG_TOL = 1e-6
# a column at a base point of mass c / p gives an eigenvector with rounding
# about 1e-16 sqrt(p / c) per entry at norm sqrt(p), so c >= 1e-6 holds sups to
# 1e-9 for p < 1e8; the least c used, for p < 100 in every realization of
# either map, is 6.2e-3
BASE_MASS_FLOOR = 1e-6


@dataclass
class HeckeEigenfunction:
    """One realization's eigenvectors for whole character spaces.

    Column j of vectors lies in the space of character characters[j]; the
    columns of one character form a basis of its space, each rescaled to
    squared norm p with its first nonzero amplitude real positive.
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

    @property
    def amplitudes(self) -> np.ndarray:
        """The vector of a one-column block, such as one simple character."""
        if self.vectors.shape[1] != 1:
            raise ValueError(f"block has {self.vectors.shape[1]} columns; "
                             f"pick a column of .vectors")
        return self.vectors[:, 0]

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
        """Per character: its columns miss the eigenvector equation.  An empty
        character has residual 0, so it is never flagged."""
        # the FFT residual's rounding grows slowly with p (at most 6.2e-15 for
        # p <= 199 with either map, 5.6e-15 at p = 1009), and an eigenvalue halfway
        # between roots leaves about pi / N >= pi / (p + 1): 1e-7 p parts them
        # for p < 5000
        return self.residuals > 1e-7 * self.p

    def multiplicities(self) -> np.ndarray:
        """Per character: how many columns of the block carry it."""
        return np.bincount(self.eigenfunctions.characters, minlength=self.torus.order)


def _normalize_columns(basis: np.ndarray, p: int) -> np.ndarray:
    """Each column rescaled to squared norm p with its first entry above 1e-6
    in modulus made real positive; a column of squared norm p has an entry of
    modulus at least 1, so that entry always exists."""
    v = basis * (np.sqrt(p) / np.linalg.norm(basis, axis=0))
    lead = v[np.argmax(np.abs(v) > 1e-6, axis=0), np.arange(v.shape[1])]
    return v * (np.abs(lead) / lead)


def _torus_elements(torus: HeckeTorus) -> tuple[np.ndarray, ...]:
    """Entries (a, b, c, d) of generator^j for j in [0, N), each an (N, 1)
    integer array, so that they broadcast against a row of points."""
    p, g = torus.p, torus.generator
    rows = [(1, 0, 0, 1)]
    for _ in range(torus.order - 1):
        a, b, c, d = rows[-1]
        rows.append(((g.a * a + g.b * c) % p, (g.a * b + g.b * d) % p,
                     (g.c * a + g.d * c) % p, (g.c * b + g.d * d) % p))
    return tuple(np.array(rows, dtype=np.int64).T[:, :, np.newaxis])


def _character_basis(torus: HeckeTorus, r: Realization) -> tuple[np.ndarray, np.ndarray]:
    """(labels, basis): p nondecreasing character labels and p orthonormal
    columns, column j in the space of character labels[j].

    One FFT along j of the diagonals of the rho(g^j) gives every P_k[x, x],
    and one of their columns at base point b every P_k delta_b; each table
    costs O(N p) from weil_entries.  Character k has multiplicity
    round(tr P_k), and its basis is pivoted Gram-Schmidt: P_k delta_b at the
    base point b of largest remaining diagonal, less the vectors already
    chosen, normalised, as many times as the multiplicity.  Raises when a
    trace is not an integer, the multiplicities are not a partition of p, a
    point mass has an imaginary part or a chosen base point has too little
    mass.
    """
    p, n = r.p, torus.order
    g = _torus_elements(torus)
    x = np.arange(p)
    base = x[:BASE_POINTS]
    diag = np.fft.fft(weil_entries(r, g, x, x), axis=0) / n  # [k, x] = P_k[x, x]
    cols = np.empty((n, base.size, p), dtype=np.complex128)  # [k, i] = P_k delta_base[i]
    for i, b in enumerate(base.tolist()):
        cols[:, i] = np.fft.fft(weil_entries(r, g, x, b), axis=0) / n
    trace = diag.real.sum(axis=1)
    mult = np.rint(trace).astype(np.int64)
    off = np.abs(trace - mult).max()
    if off > TRACE_TOL or mult.min() < 0 or mult.sum() != p:
        raise RuntimeError(f"torus projector traces miss the integers by {off:.3g}, "
                           f"or round to multiplicities {mult.tolist()} that are not "
                           f"a partition of p = {p}")
    imag = p * np.abs(diag.imag).max()
    if imag > MASS_IMAG_TOL:
        raise RuntimeError(f"point masses p P_k[x, x] have imaginary part {imag:.3g}")
    units = np.zeros((int(mult.max()), n, p), dtype=np.complex128)
    for i in range(units.shape[0]):
        ks = np.flatnonzero(mult > i)
        prev = units[:i][:, ks]  # (i, K, p): the vectors already chosen
        left = diag.real[ks][:, base] - (np.abs(prev[:, :, base]) ** 2).sum(axis=0)
        pivot = left.argmax(axis=1)
        least = p * left[np.arange(ks.size), pivot].min()
        if least < BASE_MASS_FLOOR:
            raise RuntimeError(f"a base point of mass {least:.3g} / p carries an eigenvector")
        at_pivot = np.conj(prev[:, np.arange(ks.size), base[pivot]])  # (i, K)
        col = cols[ks, pivot] - (prev * at_pivot[:, :, np.newaxis]).sum(axis=0)
        units[i, ks] = col / np.linalg.norm(col, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n), mult)
    rank = x - np.repeat(np.cumsum(mult) - mult, mult)  # position within its character
    return labels, units[rank, labels].T


def hecke_spectrum(torus: HeckeTorus, r: Realization) -> HeckeSpectrum:
    """Decompose the model of r into torus character spaces.

    The basis comes from projector tables over the torus (_character_basis),
    with no eigensolver.  rho(gen) then checks it, applied to the whole basis
    as the canonical intertwiner from the model of gen.r after the geometric
    phases, in O(p^2 log p): a character whose columns B miss the eigenvector
    equation, ||rho(gen) B - exp(2 pi i k / N) B|| > 1e-7 p, is flagged.
    """
    n = torus.order
    characters, z = _character_basis(torus, r)
    image, phases = geometric_action(r, torus.generator)
    rho_z = intertwine(r, image, phases[:, np.newaxis] * z)
    misfit = np.linalg.norm(rho_z - z * unit_roots(n)[characters], axis=0)
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
    re-applying.
    """
    moved = intertwine(target, fn.realization, fn.vectors)
    return HeckeEigenfunction(target, _normalize_columns(moved, fn.p), fn.characters)

