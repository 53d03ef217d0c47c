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
At a split prime the torus fixes the two eigenlines of the cat map; in the
realization built on them the torus acts by coordinate scalings, and its
eigenfunctions have a closed form, Legendre symbol times a multiplicative
character, returned as one block labelled by torus character like the
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import inverse_mod, unit_roots
from .groups import EnhancedLagrangian, HeckeTorus, enumerate_lagrangians
from .models import Realization, canonical_intertwiner, weil_op

__all__ = [
    "HeckeSpectrum",
    "HeckeEigenfunction",
    "hecke_spectrum",
    "eigenfunction",
    "transport",
    "split_closed_form",
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


def split_closed_form(torus: HeckeTorus) -> HeckeEigenfunction:
    """Every closed-form eigenfunction of a split torus, as one block.

    The realization's line and transversal are the two lines A mod p fixes,
    the first and second found in enumerate_lagrangians(p); the torus acts on
    its model by scalings.  The generator scales the line by a, which
    generates F_p*, so x = a^j has Legendre symbol (-1)^j and column k is
    x -> (-1)^j exp(2 pi i k j / N) sqrt(p / (p - 1)), with 0 at x = 0: it is
    real positive at x = 1 and has squared norm p.
    """
    if torus.kind != "split":
        raise ValueError(f"torus is {torus.kind}; closed form needs a split torus")
    p, n, A = torus.p, torus.order, torus.matrix
    line, other = [lag for lag in enumerate_lagrangians(p)
                   if A.apply(lag.sigma).omega(lag.sigma) == 0]
    tau = other.sigma.scale(inverse_mod(other.sigma.omega(line.sigma), p))
    r = Realization(line, tau.coords())
    a = EnhancedLagrangian(torus.generator.apply(line.sigma)).scale_from(line)
    log = np.zeros(p, dtype=np.int64)  # log[a^j] = j on F_p*
    x = 1
    for j in range(n):
        log[x] = j
        x = x * a % p
    j = log[1:, np.newaxis]
    amps = np.zeros((p, n), dtype=np.complex128)
    amps[1:] = (1 - 2 * (j % 2)) * unit_roots(n)[j * np.arange(n) % n]
    amps *= np.sqrt(p / (p - 1.0))
    return HeckeEigenfunction(r, amps, np.arange(n))


def eigenfunction_csv_rows(kind: str, fn: HeckeEigenfunction) -> list[tuple]:
    """Rows (p, kind, character_index, multiplicity, x, re, im), column by column."""
    return [(fn.p, kind, k, m, x, float(v[x].real), float(v[x].imag))
            for k, m, v in zip(fn.characters.tolist(), fn.multiplicities.tolist(),
                               fn.vectors.T)
            for x in range(fn.p)]
