import numpy as np
import pytest

from qcatlab.hecke import eigenfunction, hecke_spectrum
from qcatlab.models import geometric_action, weil_op
from qcatlab.selftest import random_sl2  # noqa: F401 - imported by the test modules


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def intertwine_with_a_moved_eigenvalue(torus, r, k):
    """(fake, stand_in): fake is rho(generator) with character k's eigenvalue
    moved halfway towards the next root of unity, so that the other
    characters' eigenvectors keep theirs and k's misses its own by
    2 sin(pi / 2N); stand_in replaces hecke's intertwine in the residual's
    one call, intertwine(r, gen.r, phases * B), and returns fake @ B."""
    n = torus.order
    v = eigenfunction(hecke_spectrum(torus, r), k).vectors[:, 0] / np.sqrt(r.p)
    shift = np.exp(2j * np.pi * (k + 0.5) / n) - np.exp(2j * np.pi * k / n)
    fake = weil_op(r, torus.generator).matrix + shift * np.outer(v, v.conj())
    image, phases = geometric_action(r, torus.generator)

    def stand_in(target, source, block):
        assert (target, source) == (r, image)
        return fake @ (np.conj(phases)[:, np.newaxis] * block)

    return fake, stand_in
