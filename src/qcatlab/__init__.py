"""Exact-arithmetic laboratory for quantized cat maps over prime fields.

Builds the finite Heisenberg and metaplectic (SL2) actions in every
line-model, extracts the joint eigenfunctions of the cat map's commutant
torus, and checks the sup-norm bound and value statistics across primes.
"""

from .arith import primes_in
from .groups import (
    CatMap,
    HeckeTorus,
    SympMatrix,
    build_hecke_torus,
    classify_prime,
)
from .models import (
    Realization,
    WeilOperator,
    canonical_intertwiner,
    heisenberg_op,
    weil_op,
)
from .hecke import (
    HeckeEigenfunction,
    HeckeSpectrum,
    eigenfunction,
    hecke_spectrum,
)
from .harness import (
    DistributionReport,
    SweepConfig,
    universal_sweep,
    value_distribution,
)

__version__ = "0.1.0"
