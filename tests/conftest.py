import numpy as np
import pytest

from qcatlab.hecke import eigenfunction, hecke_spectrum
from qcatlab.models import weil_chirps, weil_op
from qcatlab.selftest import random_sl2  # noqa: F401 - imported by the test modules


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def apply_chirps_with_a_moved_eigenvalue(torus, r, k):
    """(fake, stand_in): fake is rho(generator) with character k's eigenvalue
    moved halfway towards the next root of unity, so that the other
    characters' eigenvectors keep theirs and k's misses its own by
    2 sin(pi / 2N); stand_in replaces hecke's _apply_chirps in the
    residual's one call, _apply_chirps(weil_chirps(r, gen), B), and returns
    fake @ B."""
    n, g = torus.order, torus.generator
    v = eigenfunction(hecke_spectrum(torus, r), k).vectors[:, 0] / np.sqrt(r.p)
    shift = np.exp(2j * np.pi * (k + 0.5) / n) - np.exp(2j * np.pi * k / n)
    fake = weil_op(r, g).matrix + shift * np.outer(v, v.conj())
    expected = weil_chirps(r, (g.a, g.b, g.c, g.d))

    def stand_in(chirps, block):
        assert all(np.array_equal(a, b) for a, b in zip(chirps, expected))
        return fake @ block

    return fake, stand_in
