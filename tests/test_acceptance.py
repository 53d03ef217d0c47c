"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The sweep's `pass` column and its gating decision record the flat bound
sup <= 2 + 1e-9.  That flat bound is the theorem at inert primes.  At split
primes the eigenfunctions are explicit, their values are Salie sums, and
Weil's bound gives the sharp envelope 2/sqrt(1 - 1/p): the flat bound is
exceeded there by O(1/p), up to that envelope.  Criteria 1 and 2 therefore
check every gating record against the bound for its prime's kind (2 at inert
primes, 2/sqrt(1 - 1/p) at split primes, both plus 1e-9) and require both
kinds to occur, so neither branch passes vacuously.  See the README section
"The sup-norm bound at split primes".
"""


import numpy as np
import pytest

from conftest import random_sl2
from oracles import (
    every_line,
    projective_egorov_solver,
    projector_identity_check,
    regauge,
    split_closed_form,
)
from qcatlab.arith import legendre_symbol, primes_in, unit_roots
from qcatlab.groups import (
    CatMap,
    SympMatrix,
    classify_prime,
    build_hecke_torus,
)
from qcatlab.hecke import (
    eigenfunction,
    hecke_spectrum,
)
from qcatlab.models import (
    Realization,
    _omega,
    canonical_intertwiner,
    commutant_dimension,
    geometric_action,
    heisenberg_op,
    weil_op,
)
from qcatlab.harness import (
    SweepConfig,
    universal_sweep,
    value_distribution,
    write_records_csv,
)

A = CatMap(2, 1, 1, 1)
TOL = 1e-8
FLAT_BOUND = 2.0
SUP_TOL = 1e-9


def announce(num: int, passed: bool, detail: str) -> str:
    line = f"CRITERION {num} [{'PASS' if passed else 'FAIL'}]: {detail}"
    print("\n" + line)
    return line


@pytest.fixture(scope="module")
def defining_sweep():
    cfg = SweepConfig(matrix=A, prime_lo=5, prime_hi=199,
                      realizations="defining", jobs=2)
    return universal_sweep(cfg)


@pytest.fixture(scope="module")
def all_realization_sweep():
    cfg = SweepConfig(matrix=A, prime_lo=5, prime_hi=61, realizations="all",
                      jobs=2, verify_samples=1, seed=11)
    return universal_sweep(cfg)


def kind_bound(records) -> np.ndarray:
    """Proven sup bound for each gating record, by the kind of its prime.

    Inert primes: the flat bound 2, the theorem under test.  Split primes:
    Weil's bound on the Salie sums formed by the explicit eigenfunctions,
    2/sqrt(1 - 1/p), which exceeds 2 by O(1/p) and is attained (p = 71).
    """
    split = FLAT_BOUND / np.sqrt(1 - 1 / records["p"])
    return np.where(records["kind"] == "inert", FLAT_BOUND, split)


def _violation_lines(records):
    return "\n".join(
        f"    p={r['p']} ({r['kind']}) realization={r['realization']} "
        f"character={r['character']} sup={r['sup']:.9f}  [{r['kind']} bound {bound:.9f}]"
        for r, bound in zip(records, kind_bound(records))
    )


def _check_per_kind(num: int, records, scope: str) -> None:
    """Assert every gating record is within the bound for its prime's kind."""
    kinds = sorted(set(records["kind"]))
    assert kinds == ["inert", "split"], f"need inert and split gating records, got {kinds}"
    bound = kind_bound(records)
    violations = records[records["sup"] > bound + SUP_TOL]
    margins = {k: (bound - records["sup"])[records["kind"] == k].min() for k in kinds}
    split_above_flat = np.count_nonzero((records["kind"] == "split")
                                        & (records["sup"] > FLAT_BOUND + SUP_TOL))
    passed = len(violations) == 0
    line = announce(num, passed,
                    f"sup|amplitude| <= 2 + 1e-9 (inert) and 2/sqrt(1-1/p) + 1e-9 "
                    f"(split), {scope}: {len(violations)} violations / "
                    f"{len(records)} records; {split_above_flat} split records "
                    f"above 2; worst margin inert {margins['inert']:.3g}, "
                    f"split {margins['split']:.3g}")
    assert passed, line + "\n  violations:\n" + _violation_lines(violations)


def test_criterion_1_supremum_bound(defining_sweep):
    records = defining_sweep.records[defining_sweep.records["gating"]]
    primes = np.unique(records["p"]).tolist()
    assert primes[0] == 7 and primes[-1] == 199  # 5 is ramified for this map
    inert_max = records["sup"][records["kind"] == "inert"].max()
    split_max = records["sup"][records["kind"] == "split"].max()
    print(f"  {len(records)} multiplicity-one records over {len(primes)} primes")
    print(f"  max sup at inert primes: {inert_max:.9f} (bound 2)")
    print(f"  max sup at split primes: {split_max:.9f} (bound 2/sqrt(1-1/p))")
    _check_per_kind(1, records, "defining realization, every multiplicity-one "
                    "character, non-ramified 5 <= p <= 199")


def test_criterion_2_all_realizations(all_realization_sweep):
    records = all_realization_sweep.records[all_realization_sweep.records["gating"]]
    by_prime = {}
    for p, tag in zip(records["p"].tolist(), records["realization"]):
        by_prime.setdefault(p, set()).add(tag)
    for p, tags in sorted(by_prime.items()):
        assert len(tags) == p + 1, f"expected p+1 realizations at p={p}"
    print(f"  {len(records)} records across all p+1 realizations per prime, "
          f"primes {sorted(by_prime)}")
    _check_per_kind(2, records, "ALL p+1 realizations, 5 <= p <= 61")


def test_criterion_3_split_closed_form():
    worst = 0.0
    checked = 0
    for p in primes_in(5, 199):
        if classify_prime(A, p) != "split":
            continue
        torus = build_hecke_torus(A, p)
        block = split_closed_form(torus)
        spectrum = hecke_spectrum(torus, block.realization)
        mults = spectrum.multiplicities()
        assert sorted(block.characters.tolist()) == list(range(torus.order))
        for k, closed in zip(block.characters.tolist(), block.vectors.T):
            if mults[k] != 1:
                continue
            num = eigenfunction(spectrum, k)
            overlap = np.vdot(num.vectors[:, 0], closed)
            phase = overlap / abs(overlap)
            worst = max(worst, float(np.abs(closed - phase * num.vectors[:, 0]).max()))
            checked += 1
    passed = worst < TOL and checked > 0
    announce(3, passed,
             f"closed form matches extracted eigenfunction up to phase at every "
             f"split prime <= 199 ({checked} characters, max deviation {worst:.3g})")
    assert passed


def test_criterion_4_linearization_and_egorov(rng):
    worst_mult = 0.0
    worst_egorov = 0.0
    for p in (5, 7, 11, 13, 17):
        r = Realization.standard(p)
        for _ in range(500):
            g1, g2 = random_sl2(rng, p), random_sl2(rng, p)
            dev = np.linalg.norm(weil_op(r, g1).matrix @ weil_op(r, g2).matrix
                                 - weil_op(r, g1 * g2).matrix, 2)
            worst_mult = max(worst_mult, float(dev))
        generators = [(v1, v2, 0) for v1 in range(p) for v2 in range(p)
                      if (v1, v2) != (0, 0)]
        generators.append((0, 0, 1))
        for _ in range(50):
            g = random_sl2(rng, p)
            w = weil_op(r, g).matrix
            for h in generators:
                lhs = w @ heisenberg_op(r, *h) @ w.conj().T
                rhs = heisenberg_op(r, *g.apply(h[:2]), h[2])
                worst_egorov = max(worst_egorov, float(np.linalg.norm(lhs - rhs, 2)))
    passed = worst_mult < TOL and worst_egorov < TOL
    announce(4, passed,
             f"exact linearization (500 random pairs, p in 5..17, worst "
             f"{worst_mult:.3g}) and Egorov identity over all phase-space "
             f"translations (worst {worst_egorov:.3g})")
    assert passed


def test_criterion_5_intertwiner_axioms(rng):
    worst = {"sign": 0.0, "conv": 0.0, "inv": 0.0}
    for p in (5, 7, 11, 13):
        lines = every_line(p)
        # normalization is exact by construction
        for r in lines:
            assert np.array_equal(canonical_intertwiner(r, r), np.eye(p))
        # sign rule, exhaustive over scale factors and ordered line pairs
        for rt in lines:
            for rs in lines:
                if not _omega(*rt.sigma, *rs.sigma, p):
                    continue
                base = canonical_intertwiner(rt, rs)
                for a in range(2, p):
                    chi = legendre_symbol(a, p)
                    st = Realization.of(a * rt.sigma[0], a * rt.sigma[1], p)
                    dev = np.abs(regauge(canonical_intertwiner(st, rs), st, rs, rt, rs)
                                 - chi * base).max()
                    worst["sign"] = max(worst["sign"], float(dev))
                    ss = Realization.of(a * rs.sigma[0], a * rs.sigma[1], p)
                    dev = np.abs(regauge(canonical_intertwiner(rt, ss), rt, ss, rt, rs)
                                 - chi * base).max()
                    worst["sign"] = max(worst["sign"], float(dev))
        # convolution and invariance on random samples
        def random_realization():
            while True:
                s1, s2 = int(rng.integers(p)), int(rng.integers(p))
                if s1 or s2:
                    return Realization.of(s1, s2, p)

        for _ in range(50):
            rn, rm, rl = (random_realization() for _ in range(3))
            dev = np.abs(canonical_intertwiner(rn, rm)
                         @ canonical_intertwiner(rm, rl)
                         - canonical_intertwiner(rn, rl)).max()
            worst["conv"] = max(worst["conv"], float(dev))
        for _ in range(50):
            g = random_sl2(rng, p)
            rm, rl = random_realization(), random_realization()
            gm, phase_m = geometric_action(rm, g)
            gl, phase_l = geometric_action(rl, g)
            conj = (phase_m[:, None] * canonical_intertwiner(rm, rl)) \
                * np.conj(phase_l)[None, :]
            dev = np.abs(conj - canonical_intertwiner(gm, gl)).max()
            worst["inv"] = max(worst["inv"], float(dev))
    passed = all(v < TOL for v in worst.values())
    announce(5, passed,
             f"intertwiner axioms: normalization exact; sign rule exhaustive "
             f"(worst {worst['sign']:.3g}); convolution on random triples "
             f"(worst {worst['conv']:.3g}); invariance (worst {worst['inv']:.3g})")
    assert passed


def test_criterion_6_stone_von_neumann():
    checked = 0
    for p in primes_in(5, 31):
        psi = unit_roots(p)
        for r in every_line(p):
            assert commutant_dimension(r) == 1
            for z in range(p):
                m = heisenberg_op(r, 0, 0, z)
                assert np.abs(m - psi[z] * np.eye(p)).max() < 1e-12
            checked += 1
    # independent route: the intertwining-equation solver sees a 1-dim space
    for p in (5, 7):
        x = projective_egorov_solver(Realization.standard(p), SympMatrix.identity(p))
        assert np.allclose(x, (np.trace(x) / p) * np.eye(p), atol=1e-9)
    announce(6, True,
             f"commutant one-dimensional and central character exact in all "
             f"{checked} realizations over p <= 31")


def test_criterion_7_projector_identity(rng, defining_sweep, all_realization_sweep):
    worst = 0.0
    for p in (7, 11, 13):
        torus = build_hecke_torus(A, p)
        spectrum = hecke_spectrum(torus, Realization.standard(p))
        simple = np.flatnonzero(spectrum.multiplicities() == 1)
        others = every_line(p)
        for _ in range(50):
            k = int(simple[rng.integers(len(simple))])
            fn = eigenfunction(spectrum, k)
            x = int(rng.integers(p))
            via = others[int(rng.integers(len(others)))]
            direct, proj = projector_identity_check(fn, x, via=via)
            worst = max(worst, abs(direct - proj))
    records = np.concatenate([defining_sweep.records, all_realization_sweep.records])
    passing = records[records["passed"]]
    # a_max, as the CSV writes it
    a_max_ok = bool((passing["sup"] * passing["sup"] <= 4.0 + 5e-9).all())
    passed = worst < TOL and a_max_ok
    announce(7, passed,
             f"point mass via projector matches |amplitude|^2 (50 samples per "
             f"p in 7,11,13, worst {worst:.3g}); a_x <= 4 on all "
             f"{len(passing)} passing records")
    assert passed


def test_criterion_8_value_distribution():
    cfg = SweepConfig(matrix=A, prime_lo=101, prime_hi=199, jobs=2)
    report = value_distribution(cfg)
    moment_dev = abs(report.second_moment - report.reference_second_moment)
    print(f"  samples: {report.sample_count} from inert primes {report.primes}")
    print(f"  second moment: {report.second_moment:.6f} "
          f"(reference {report.reference_second_moment:.6f}, dev {moment_dev:.2e})")
    print(f"  first four moments: {[f'{m:.5f}' for m in report.moments]}")
    print(f"  reference moments:  {[f'{m:.5f}' for m in report.reference_moments]}")
    passed = moment_dev <= 0.1 and report.ks_distance < 0.1
    announce(8, passed,
             f"value statistics match the SU(2) trace law over inert primes in "
             f"[101, 199]: KS = {report.ks_distance:.4f} (< 0.1), second-moment "
             f"deviation {moment_dev:.2e} (<= 0.1)")
    assert passed


def test_criterion_9_exclusions_and_determinism(tmp_path):
    # ramified primes skipped and logged
    result = universal_sweep(SweepConfig(matrix=A, prime_lo=5, prime_hi=7))
    ram_ok = any(p == 5 and "ramified" in reason for p, reason in result.skips)
    assert set(result.records["p"].tolist()) == {7}
    # p = 3 reported but non-gating
    result3 = universal_sweep(SweepConfig(matrix=A, prime_lo=3, prime_hi=3))
    p3_ok = len(result3.records) > 0 and not result3.records["gating"].any()
    # byte-identical artifacts on two consecutive identical runs
    cfg = SweepConfig(matrix=A, prime_lo=5, prime_hi=13, realizations="all",
                      seed=7, verify_samples=1)
    blobs = []
    for name in ("first.csv", "second.csv"):
        res = universal_sweep(cfg)
        path = tmp_path / name
        write_records_csv(path, res.per_prime)
        blobs.append(path.read_bytes())
    det_ok = blobs[0] == blobs[1]
    passed = ram_ok and p3_ok and det_ok
    announce(9, passed,
             f"ramified skip logged ({ram_ok}), p=3 reported non-gating "
             f"({p3_ok}), identical config+seed gives byte-identical CSV ({det_ok})")
    assert passed
