import numpy as np
import pytest

from qcatlab.hecke import eigenfunction, hecke_spectrum
from qcatlab.models import weil_op
from qcatlab.selftest import random_sl2  # noqa: F401 - imported by the test modules


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def operator_with_a_moved_eigenvalue(torus, r, k):
    """rho(generator) with character k's eigenvalue moved halfway towards the
    next root of unity: the other characters' eigenvectors keep theirs, and
    k's misses its own by 2 sin(pi / 2N)."""
    n = torus.order
    v = eigenfunction(hecke_spectrum(torus, r), k).amplitudes / np.sqrt(r.p)
    shift = np.exp(2j * np.pi * (k + 0.5) / n) - np.exp(2j * np.pi * k / n)
    return weil_op(r, torus.generator).matrix + shift * np.outer(v, v.conj())
