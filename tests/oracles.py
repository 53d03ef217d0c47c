"""Independent routes that the tests compare the program against.

None of this runs in the program: each helper rebuilds a quantity the
package computes by another path (the whole torus from its generator, an
intertwiner in another gauge, the SL2 action from the Egorov equation), so
that a test can hold the package's answer against it.
"""

import numpy as np

from qcatlab.groups import HeckeTorus, HeisenbergElement, SympMatrix
from qcatlab.models import Intertwiner, Realization, _coordinate_change, heisenberg_op


def torus_powers(torus: HeckeTorus) -> list[SympMatrix]:
    """generator^j for j in [0, order), by repeated products."""
    out = [SympMatrix.identity(torus.p)]
    for _ in range(torus.order - 1):
        out.append(out[-1] * torus.generator)
    return out


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
    null_dim = int(np.sum(s < 1e-8 * s[0]))
    if null_dim != 1:
        raise RuntimeError(f"solution space has dimension {null_dim}, expected 1")
    x = np.conj(vh[-1]).reshape(p, p)  # right-singular vectors are conj(vh) rows
    return x / np.linalg.norm(x)
