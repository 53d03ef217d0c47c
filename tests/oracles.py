"""Independent routes that the tests compare the program against.

None of this runs in the program: each helper rebuilds a quantity the
package computes by another path (the whole torus from its generator, an
intertwiner in another gauge, the SL2 action from the Egorov equation, the
torus spectrum from a dense eigensolver), so that a test can hold the
package's answer against it.
"""

import numpy as np

from qcatlab.arith import unit_roots
from qcatlab.groups import HeckeTorus, HeisenbergElement, SympMatrix
from qcatlab.hecke import HeckeEigenfunction, HeckeSpectrum, _normalize_columns
from qcatlab.models import Intertwiner, Realization, _coordinate_change, heisenberg_op, weil_op


def torus_powers(torus: HeckeTorus) -> list[SympMatrix]:
    """generator^j for j in [0, order), by repeated products."""
    out = [SympMatrix.identity(torus.p)]
    for _ in range(torus.order - 1):
        out.append(out[-1] * torus.generator)
    return out


def eig_spectrum(torus: HeckeTorus, r: Realization) -> HeckeSpectrum:
    """The torus spectrum from numpy's eigendecomposition of rho(generator).

    Each eigenvalue goes to its nearest N-th root of unity, the eigenvectors
    are stable-sorted by that character, and one QR factorisation makes them
    an orthonormal basis; residuals are computed as hecke_spectrum's.  The
    basis of a degenerate character is whatever the solver returns.
    """
    n = torus.order
    rho_gen = weil_op(r, torus.generator).matrix
    eigenvalues, vectors = np.linalg.eig(rho_gen)
    bins = np.rint(np.angle(eigenvalues) * n / (2 * np.pi)).astype(np.int64) % n
    order = np.argsort(bins, kind="stable")
    bins = bins[order]
    z, _ = np.linalg.qr(vectors[:, order])
    misfit = np.linalg.norm(rho_gen @ z - z * unit_roots(n)[bins], axis=0)
    residuals = np.sqrt(np.bincount(bins, weights=misfit ** 2, minlength=n))
    return HeckeSpectrum(torus, HeckeEigenfunction(r, _normalize_columns(z, r.p), bins),
                         residuals)


def regauge(op: Intertwiner, target: Realization, source: Realization) -> Intertwiner:
    """The same operator written between other gauges of the same two lines.

    Lets operator identities that mix enhancements (the sign rule, most
    prominently) be checked as literal matrix equalities.
    """
    if not target.lagrangian.shares_line(op.target.lagrangian):
        raise ValueError("target realization lies on a different line")
    if not source.lagrangian.shares_line(op.source.lagrangian):
        raise ValueError("source realization lies on a different line")
    m = op.matrix
    if target != op.target:
        m = _coordinate_change(target, op.target) @ m
    if source != op.source:
        m = m @ _coordinate_change(op.source, source)
    return Intertwiner(source, target, m)


def projective_egorov_solver(r: Realization, g: SympMatrix) -> np.ndarray:
    """Solve X pi(h) = pi(g h) X for the generators h, up to scalar.

    The solution space is one-dimensional because both sides are irreducible
    with the same central character; a unit Frobenius norm representative is
    returned.  The system is 2p^2 x p^2 (SVD cost O(p^6)), so keep p small.
    """
    p = r.p
    eye = np.eye(p)
    blocks = []
    for h in (HeisenbergElement.of(1, 0, 0, p), HeisenbergElement.of(0, 1, 0, p)):
        ph = heisenberg_op(r, h).matrix
        pgh = heisenberg_op(r, HeisenbergElement(g.apply(h.v), h.z)).matrix
        blocks.append(np.kron(eye, ph.T) - np.kron(pgh, eye))
    system = np.vstack(blocks)
    _, s, vh = np.linalg.svd(system)
    # the null singular value sits near 2e-16 s[0] (p <= 13), the next one at
    # 2 sin(pi / p) ~ 2.2 s[0] / p, so 1e-8 s[0] parts them for p < 1e8
    null_dim = int(np.sum(s < 1e-8 * s[0]))
    if null_dim != 1:
        raise RuntimeError(f"solution space has dimension {null_dim}, expected 1")
    x = np.conj(vh[-1]).reshape(p, p)  # right-singular vectors are conj(vh) rows
    return x / np.linalg.norm(x)
