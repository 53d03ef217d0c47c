"""Quick end-to-end checks runnable from the CLI; prints one line per check."""

from __future__ import annotations

import numpy as np

from .arith import half_mod
from .groups import CatMap, SympMatrix, build_hecke_torus, classify_prime
from .harness import SUP_BOUND, SUP_TOL
from .hecke import hecke_spectrum
from .models import (
    Realization,
    canonical_intertwiner,
    commutant_dimension,
    heisenberg_op,
    weil_op,
)


def random_sl2(rng, p: int) -> SympMatrix:
    """Uniform-ish random element of SL2(F_p): complete a row to det 1."""
    while True:
        a, b, c = (int(rng.integers(p)) for _ in range(3))
        if a:
            return SympMatrix(a, b, c, (1 + b * c) * pow(a, -1, p), p)
        if b:
            return SympMatrix(0, b, -pow(b, -1, p), c, p)


def run(prime: int = 7, seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    p = prime
    ok = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}{'  ' + detail if detail else ''}")

    r = Realization.standard(p)
    m1, m2 = heisenberg_op(r, 1, 0, 0), heisenberg_op(r, 0, 1, 0)
    # ((1, 0), 0) ((0, 1), 0) = ((1, 1), omega((1, 0), (0, 1)) / 2)
    m12 = heisenberg_op(r, 1, 1, half_mod(1, p))
    # each entry of m1 m2 is one nonzero product of table roots, so rounding
    # does not grow with p (measured 0 for p <= 1009); a wrong phase misses by order 1
    check("heisenberg homomorphism", np.allclose(m1 @ m2, m12, atol=1e-12))

    central = heisenberg_op(r, 0, 0, 1)
    # the table root and np.exp agree to an ulp (<= 3.5e-18 for p <= 1009);
    # allclose's defaults allow 1e-8 + 1e-5 and a wrong character misses by
    # 2 sin(pi / p), more than that for p < 6e5
    check("central character", np.allclose(central, np.exp(2j * np.pi / p) * np.eye(p)))

    check("commutant is scalars", commutant_dimension(r) == 1)

    f = canonical_intertwiner(Realization.of(1, 0, p), r)
    # rounding in f f^H grows about like sqrt(p): 3.3e-16 at p = 7, 5.9e-15 at
    # p = 1009, against order 1 for a wrong scale
    check("intertwiner unitary",
          np.allclose(f @ f.conj().T, np.eye(p), atol=1e-9))

    g1, g2 = random_sl2(rng, p), random_sl2(rng, p)
    w1, w2 = weil_op(r, g1).matrix, weil_op(r, g2).matrix
    w12 = weil_op(r, g1 * g2).matrix
    # entries have size p^-1/2: rounding stays below 1e-15 for p <= 1009, while
    # a sign ambiguity misses by 2 p^-1/2, above 1e-9 for any p used
    check("linearized multiplicativity", np.allclose(w1 @ w2, w12, atol=1e-9))

    # rounding grows slowly with p: 5e-16 at p = 7, 4.6e-15 at p = 1009,
    # against order 1 for a wrong image of a generator
    egorov_ok = True
    for v in ((1, 0), (0, 1)):
        lhs = w1 @ heisenberg_op(r, *v, 0) @ w1.conj().T
        rhs = heisenberg_op(r, *g1.apply(v), 0)
        egorov_ok &= bool(np.allclose(lhs, rhs, atol=1e-9))
    check("egorov identity", egorov_ok)

    A = CatMap(2, 1, 1, 1)
    kind = classify_prime(A, p)
    if kind == "ramified":
        print(f"SKIP  spectrum (p={p} ramified for the default cat map)")
    else:
        spectrum = hecke_spectrum(build_hecke_torus(A, p), r)
        for k in np.flatnonzero(spectrum.flagged).tolist():
            check(f"character {k}", False, "flagged: basis fails the eigenvector equation")
        fn = spectrum.eigenfunctions
        simple = (fn.multiplicities == 1) & ~spectrum.flagged[fn.characters]
        sup = float(np.abs(fn.vectors[:, simple]).max())
        # the flat bound is the theorem at inert primes; split eigenfunctions
        # reach the Salie-sum envelope 2/sqrt(1 - 1/p) (README)
        if kind == "inert":
            bound, name = SUP_BOUND, "flat bound 2"
        else:
            bound, name = SUP_BOUND / np.sqrt(1 - 1 / p), "split envelope 2/sqrt(1 - 1/p)"
        check("supremum bound", sup <= bound + SUP_TOL,
              f"max sup = {sup:.6f} against the {name} = {bound:.6f}")
    return ok
