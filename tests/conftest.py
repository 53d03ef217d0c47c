import numpy as np
import pytest

from qcatlab.selftest import random_sl2  # noqa: F401 - imported by the test modules


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
