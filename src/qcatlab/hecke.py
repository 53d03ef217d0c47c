"""Character decomposition of the torus action on a model and eigenfunction
extraction, including the closed form available at split primes.

The torus is cyclic, so one operator carries the whole decomposition: the
character space of index k is the eigenspace of rho(generator) for the
eigenvalue exp(2 pi i k / N).  rho(generator) is unitary, so numpy's
eigendecomposition gives its eigenvalues and eigenvectors directly; each
eigenvalue is binned to its nearest N-th root of unity, and one QR
factorisation of the eigenvectors, sorted by bin, gives an orthonormal basis
of every character space.  Eigenfunctions travel as one block per
realization: a (p, n) matrix whose columns are labelled by character, which
`transport` carries to another realization with one intertwiner product.
The spectrum is itself such a block with n = p: every eigenvector,
stable-sorted by character and normalized once, so a character's
multiplicity is the count of its label and extracting characters selects
columns.
At a split prime the torus fixes the two eigenlines of the cat map; in a
realization adapted to them the torus acts by coordinate scalings and the
multiplicity one eigenfunctions are Legendre-times-multiplicative-character
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import (
    CyclicCharacter,
    discrete_log_table,
    half_mod,
    legendre_table,
    sqrt_mod,
    unit_roots,
)
from .groups import EnhancedLagrangian, HeckeTorus, SympMatrix, SymplecticVector
from .models import Realization, canonical_intertwiner, weil_op

__all__ = [
    "HeckeSpectrum",
    "HeckeEigenfunction",
    "hecke_spectrum",
    "eigenfunction",
    "transport",
    "split_adapted_realization",
    "split_closed_form",
    "matched_character_index",
    "eigenfunction_csv_rows",
]

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

    def by_character(self) -> list[HeckeEigenfunction]:
        """One block per run of equal characters, in column order, as views."""
        cuts = np.flatnonzero(np.diff(self.characters, prepend=-1, append=-1)).tolist()
        return [HeckeEigenfunction(self.realization, self.vectors[:, a:b], self.characters[a:b])
                for a, b in zip(cuts, cuts[1:])]


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
        # rounding grows about like p * 1e-16 and an eigenvalue halfway between
        # roots leaves about pi / N >= pi / (p + 1): 1e-7 p parts them for p < 5000
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


def hecke_spectrum(torus: HeckeTorus, r: Realization) -> HeckeSpectrum:
    """Decompose the model of r into torus character spaces.

    One eigendecomposition of rho(generator) gives its eigenvalues and
    eigenvectors.  Eigenvalue e goes to character
    k = round(angle(e) * N / 2 pi) mod N, and k's multiplicity is the size of
    its bin.  The eigenvectors are stable-sorted by character and one QR
    factorisation makes them an orthonormal basis, degenerate characters
    included.  A character whose columns B miss the eigenvector equation,
    ||rho(gen) B - exp(2 pi i k / N) B|| > 1e-7 p, is flagged rather than
    silently kept.  An eigenvalue halfway between two roots lands in a bin
    with a residual near pi / N, so it is flagged too.
    """
    n = torus.order
    rho_gen = weil_op(r, torus.generator).matrix
    eigenvalues, vectors = np.linalg.eig(rho_gen)
    bins = np.rint(np.angle(eigenvalues) * n / (2 * np.pi)).astype(np.int64) % n
    order = np.argsort(bins, kind="stable")
    bins = bins[order]
    # rho(gen) is unitary, so eigenvectors of different characters are already
    # orthogonal up to rounding; the QR orthonormalises within each bin
    z, _ = np.linalg.qr(vectors[:, order])
    # every bin's ||rho(gen) B - e_k B|| from one product: the squared column
    # misfits summed per bin
    misfit = np.linalg.norm(rho_gen @ z - z * unit_roots(n)[bins], axis=0)
    residuals = np.sqrt(np.bincount(bins, weights=misfit ** 2, minlength=n))
    block = HeckeEigenfunction(r, _normalize_columns(z, r.p), bins)
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
    operator moves every column in one product.  It commutes with the torus
    action, so each image is again an eigenfunction for its character; it is
    unitary, so only the leading-phase convention needs re-applying.
    """
    op = canonical_intertwiner(target, fn.realization)
    return HeckeEigenfunction(target, _normalize_columns(op.matrix @ fn.vectors, fn.p),
                              fn.characters)


def _eigenline_vectors(torus: HeckeTorus) -> tuple[SymplecticVector, SymplecticVector]:
    A = torus.matrix
    p = A.p
    disc = (A.trace() ** 2 - 4) % p
    root = sqrt_mod(disc, p)
    if root is None:
        raise RuntimeError("no eigenvalues in F_p for a split torus")
    lines = []
    for lam in (half_mod(A.trace() + root, p), half_mod(A.trace() - root, p)):
        if A.b % p != 0:
            v = SymplecticVector(A.b, lam - A.a, p)
        elif A.c % p != 0:
            v = SymplecticVector(lam - A.d, A.c, p)
        else:
            v = SymplecticVector(1, 0, p) if lam == A.a else SymplecticVector(0, 1, p)
        lines.append(v)
    return lines[0], lines[1]


def split_adapted_realization(torus: HeckeTorus) -> Realization:
    """A realization whose line and transversal are both torus-fixed.

    Exists exactly at split primes: sigma spans one eigenline of the cat map
    and tau the other, scaled so omega(tau, sigma) = 1.
    """
    if torus.kind != "split":
        raise ValueError(f"torus is {torus.kind}; no torus-fixed line exists")
    sigma, other = _eigenline_vectors(torus)
    p = torus.p
    w = other.omega(sigma)
    tau = other.scale(pow(w, -1, p))
    return Realization(EnhancedLagrangian(sigma), tau.coords())


def _line_eigenvalue(g: SympMatrix, sigma: SymplecticVector) -> int:
    gv = g.apply(sigma)
    if sigma.v1 != 0:
        a = (gv.v1 * pow(sigma.v1, -1, g.p)) % g.p
    else:
        a = (gv.v2 * pow(sigma.v2, -1, g.p)) % g.p
    if gv.coords() != sigma.scale(a).coords():
        raise ValueError("line is not fixed by the torus element")
    return a


def matched_character_index(torus: HeckeTorus, r: Realization, chi: CyclicCharacter) -> int:
    """Torus character index of the closed-form eigenfunction for chi.

    Both characters are evaluated on the torus generator: the closed form has
    eigenvalue chi(a0) where a0 is the generator's eigenvalue on the line of
    r, and the spectrum's character k has eigenvalue exp(2 pi i k / N).
    """
    p = torus.p
    if chi.order != p - 1:
        raise ValueError("chi must be a character of the multiplicative group")
    a0 = _line_eigenvalue(torus.generator, r.lagrangian.sigma)
    ind = discrete_log_table(p)
    return int((chi.index * ind[a0]) % torus.order)


def split_closed_form(torus: HeckeTorus, chi: CyclicCharacter, r: Realization) -> HeckeEigenfunction:
    """The explicit eigenfunction x -> chi_q(x) chi(x) in a torus-adapted model.

    chi is a character of F_p* parametrized by the smallest primitive root.
    The vector vanishes at x = 0, has constant modulus elsewhere, and is
    rescaled to squared norm p; its torus character is the one reported by
    matched_character_index.
    """
    if torus.kind != "split":
        raise ValueError(f"torus is {torus.kind}; closed form needs a split torus")
    p = torus.p
    _line_eigenvalue(torus.generator, r.lagrangian.sigma)
    _line_eigenvalue(torus.generator, SymplecticVector(*r.tau, p))
    if chi.order != p - 1:
        raise ValueError("chi must be a character of the multiplicative group")
    ind = discrete_log_table(p)
    amps = np.zeros(p, dtype=np.complex128)
    amps[1:] = legendre_table(p)[1:] * unit_roots(p - 1)[(chi.index * ind[1:]) % (p - 1)]
    amps *= np.sqrt(p / (p - 1.0))
    k = matched_character_index(torus, r, chi)
    return HeckeEigenfunction(r, amps[:, np.newaxis], np.array([k]))


def eigenfunction_csv_rows(kind: str, fn: HeckeEigenfunction) -> list[tuple]:
    """Rows (p, kind, character_index, multiplicity, x, re, im), column by column."""
    return [(fn.p, kind, k, m, x, float(v[x].real), float(v[x].imag))
            for k, m, v in zip(fn.characters.tolist(), fn.multiplicities.tolist(),
                               fn.vectors.T)
            for x in range(fn.p)]
