"""Independent routes that the tests compare the program against.

None of this runs in the program: each helper rebuilds a quantity the
package computes by another path (the torus generator by walking each
candidate's powers and by the prime factors of its order, the commutant's
norm-one pairs by scanning the plane, the whole torus from its generator, the
canonical intertwiners from their definitions by summation and by
decomposition, an intertwiner in another gauge, the SL2 action from the
Egorov equation, the torus spectrum from a dense eigensolver, the split
eigenfunctions in closed form, point masses through the averaging projector,
the family validation on dense matrices, the all-realizations record table
by one transport to every line, a block moved along a torus orbit by the
geometric action, the character basis by pivoted Gram-Schmidt over four
base columns for every character, sweep.csv formatted one row at a time,
with each line's tag from its realization, the enhancement ratio of two
vectors on a line, the Heisenberg group law on integer triples), so that a
test can hold the package's answer against it.
"""

import numpy as np

from qcatlab.arith import half_mod, legendre_symbol, unit_roots
from qcatlab.groups import (
    CatMap,
    HeckeTorus,
    SympMatrix,
    classify_prime,
    line_sigmas,
    torus_elements,
)
from qcatlab.harness import RECORD_DTYPE, SWEEP_SCHEMA, supremum_records
from qcatlab.hecke import (
    BASE_MASS_FLOOR,
    PIVOT_TIE_TOL,
    HeckeEigenfunction,
    HeckeSpectrum,
    _along_torus,
    _half_diagonals,
    _mirror,
    _normalize_columns,
    transport,
)
from qcatlab.models import (
    IntertwinerConstructionError,
    Realization,
    _decompose,
    _omega,
    averaging_scale,
    canonical_intertwiner,
    geometric_action,
    heisenberg_op,
    intertwine,
    weil_chirps,
    weil_entries,
    weil_op,
)


def every_line(p: int) -> list[Realization]:
    """The canonical realization of each line, in line_sigmas order."""
    s1, s2 = line_sigmas(p)
    return [Realization.of(a, b, p) for a, b in zip(s1.tolist(), s2.tolist())]


def fixed_lines(torus: HeckeTorus) -> list[Realization]:
    """The canonical realizations of the lines A mod p maps to themselves,
    in line_sigmas order: two at a split prime, none at an inert one."""
    return [r for r in every_line(torus.p)
            if _omega(*torus.matrix.apply(r.sigma), *r.sigma, torus.p) == 0]


def enhancement_ratio(sigma, other, p: int) -> int:
    """The e with sigma = e * other for nonzero integer pairs on one line,
    read off the first coordinate where other is nonzero; ValueError for
    pairs on different lines."""
    if _omega(*sigma, *other, p):
        raise ValueError("vectors on different lines")
    i = 0 if other[0] % p else 1
    return sigma[i] * pow(other[i], -1, p) % p


def heisenberg_product(h, k, p: int) -> tuple[int, int, int]:
    """The group law (v, z)(v', z') = (v + v', z + z' + omega(v, v') / 2) on
    integer triples (v1, v2, z), reduced mod p."""
    (a, b, z), (c, d, w) = h, k
    return (a + c) % p, (b + d) % p, (z + w + half_mod(_omega(a, b, c, d, p), p)) % p


def generator_by_element_orders(A: CatMap, p: int) -> SympMatrix:
    """The first element of full order in the x-major walk of the commutant
    {x I + y A : det = 1} of A mod p, each candidate's order found by
    multiplying it into itself until it returns to the identity."""
    Ap = A.reduce(p)
    order = p - 1 if classify_prime(A, p) == "split" else p + 1
    for x in range(p):
        for y in range(p):
            if (x * x + Ap.trace() * x * y + y * y) % p != 1:
                continue
            g = SympMatrix(x + y * Ap.a, y * Ap.b, y * Ap.c, x + y * Ap.d, p)
            acc, k = g, 1
            while acc != SympMatrix.identity(p):
                acc, k = acc * g, k + 1
            if k == order:
                return g
    raise RuntimeError(f"no element of order {order} at p = {p}")


def generator_by_prime_factors(A: CatMap, p: int) -> SympMatrix:
    """The first element of the x-major walk of the commutant of A mod p
    with g^(N / q) != I for every prime q dividing its order N, each power
    taken by repeated squaring."""
    Ap = A.reduce(p)
    order = p - 1 if classify_prime(A, p) == "split" else p + 1
    factors = [q for q in range(2, order + 1)
               if order % q == 0 and all(q % d for d in range(2, q))]

    def power(g, e):
        out = SympMatrix.identity(p)
        while e:
            if e & 1:
                out = out * g
            g, e = g * g, e >> 1
        return out

    ys = np.arange(p)
    for x in range(p):
        for y in np.flatnonzero((x * x + Ap.trace() * x * ys + ys * ys) % p == 1).tolist():
            g = SympMatrix(x + y * Ap.a, y * Ap.b, y * Ap.c, x + y * Ap.d, p)
            if all(power(g, order // q) != SympMatrix.identity(p) for q in factors):
                return g
    raise RuntimeError(f"no element of order {order} at p = {p}")


def norm_one_pairs_by_scan(A: CatMap, p: int) -> np.ndarray:
    """The (x, y) with det(x I + y A) = x^2 + t x y + y^2 = 1 mod p, found
    by testing every point of the plane, x-major with y ascending."""
    t = A.reduce(p).trace()
    x, y = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    return np.argwhere((x * x + t * x * y + y * y) % p == 1)


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


def averaging_by_summation(target: Realization, source: Realization) -> np.ndarray:
    """The canonical operator between transverse lines by its definition.

    Row y sums p terms, one per point of the target line: the group point
    (m sigma, 0) (y tau, 0) = (m sigma + y tau, m y omega(sigma, tau) / 2),
    decomposed into source coordinates with models._decompose, adds its
    phase at the column it lands on.  The sum is times scale(p) chi_q(w),
    w = omega(sigma, sigma').
    """
    p = target.p
    w = _omega(*target.sigma, *source.sigma, p)
    if w == 0:
        raise ValueError("summation over the target line needs transverse lines")
    (s1, s2), (t1, t2) = target.sigma, target.tau
    y, m = np.arange(p)[:, np.newaxis], np.arange(p)[np.newaxis, :]
    z = half_mod(m * y % p * ((s1 * t2 - s2 * t1) % p), p)
    x, z0 = _decompose(source, (m * s1 + y * t1) % p, (m * s2 + y * t2) % p, z)
    out = np.zeros((p, p), dtype=np.complex128)
    np.add.at(out, (np.broadcast_to(y, x.shape), x), unit_roots(p)[z0])
    return averaging_scale(p) * legendre_symbol(w, p) * out


def bare_coordinate_change(target: Realization, source: Realization) -> np.ndarray:
    """The identity map between realizations on one line, with no Legendre
    sign: row y is the target's transversal point (y tau, 0), decomposed
    once into source coordinates."""
    p = target.p
    if _omega(*target.sigma, *source.sigma, p):
        raise ValueError("a coordinate change needs one line")
    t1, t2 = target.tau
    y = np.arange(p)
    x, z0 = _decompose(source, y * t1 % p, y * t2 % p, 0)
    out = np.zeros((p, p), dtype=np.complex128)
    out[y, x] = unit_roots(p)[z0]
    return out


def coordinate_change_by_decomposition(target: Realization,
                                       source: Realization) -> np.ndarray:
    """The canonical operator between realizations on one line by its
    definition: the bare coordinate change times chi_q of the enhancement
    ratio.  Identical realizations give the identity."""
    ratio = enhancement_ratio(target.sigma, source.sigma, target.p)
    return legendre_symbol(ratio, target.p) * bare_coordinate_change(target, source)


def regauge(op: np.ndarray, op_target: Realization, op_source: Realization,
            target: Realization, source: Realization) -> np.ndarray:
    """The operator op, model(op_source) -> model(op_target), written between
    other gauges of the same two lines.

    Lets operator identities that mix enhancements (the sign rule, most
    prominently) be checked as literal matrix equalities.
    """
    p = target.p
    if _omega(*target.sigma, *op_target.sigma, p):
        raise ValueError("target realization lies on a different line")
    if _omega(*source.sigma, *op_source.sigma, p):
        raise ValueError("source realization lies on a different line")
    if target != op_target:
        op = bare_coordinate_change(target, op_target) @ op
    if source != op_source:
        op = op @ bare_coordinate_change(op_source, source)
    return op


def projective_egorov_solver(r: Realization, g: SympMatrix) -> np.ndarray:
    """Solve X pi(h) = pi(g h) X for the generators h, up to scalar.

    The solution space is one-dimensional because both sides are irreducible
    with the same central character; a unit Frobenius norm representative is
    returned.  The system is 2p^2 x p^2 (SVD cost O(p^6)), so keep p small.
    """
    p = r.p
    eye = np.eye(p)
    blocks = []
    for v in ((1, 0), (0, 1)):
        ph = heisenberg_op(r, *v, 0)
        pgh = heisenberg_op(r, *g.apply(v), 0)
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


def split_closed_form(torus: HeckeTorus) -> HeckeEigenfunction:
    """Every closed-form eigenfunction of a split torus, as one block.

    The realization's line and transversal are the two lines A mod p fixes,
    the first and second of fixed_lines(torus); the torus acts on
    its model by scalings.  The generator scales the line by a, which
    generates F_p*, so x = a^j has Legendre symbol (-1)^j and column k is
    x -> (-1)^j exp(2 pi i k j / N) sqrt(p / (p - 1)), with 0 at x = 0: it is
    real positive at x = 1 and has squared norm p.
    """
    if torus.kind != "split":
        raise ValueError(f"torus is {torus.kind}; closed form needs a split torus")
    p, n = torus.p, torus.order
    line, other = (r.sigma for r in fixed_lines(torus))
    scale = pow(_omega(*other, *line, p), -1, p)
    r = Realization(p, line, (scale * other[0], scale * other[1]))
    a = enhancement_ratio(torus.generator.apply(line), line, p)
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


def projector_identity_check(fn: HeckeEigenfunction, x: int,
                             via: Realization | None = None) -> tuple[float, float]:
    """The point mass at x computed two ways: directly and through the
    averaging projector onto the x-character of the realization's line.

    The projector form (1/|L|) sum_l psi_x(l) <pi(l) v, v> is evaluated in the
    realization `via` (default: the eigenfunction's own), with v transported
    there first; agreement across choices of `via` is the model-independence
    of the quantity.
    """
    p = fn.p
    amps = fn.vectors[:, 0]
    direct = float(abs(amps[x % p]) ** 2)
    source = fn.realization
    if via is None or via == source:
        via = source
        v = amps
    else:
        v = canonical_intertwiner(via, source) @ amps
    s1, s2 = source.sigma
    roots = unit_roots(p)
    total = 0.0j
    for l in range(p):
        op = heisenberg_op(via, l * s1, l * s2, 0)
        total += np.conj(roots[(l * x) % p]) * np.vdot(v, op @ v)
    projector = total / p
    # the form is real for any v: rounding leaves about 1.5e-17 p (2.9e-15 at
    # p = 199), and a breakdown, not a wrong point mass, is what 1e-8 p catches
    if not abs(projector.imag) <= 1e-8 * p:
        raise RuntimeError(f"projector form has imaginary part {projector.imag:.3g}")
    return direct, float(projector.real)


def dense_validate_family(p: int, scale: complex) -> None:
    """models._validate_family on dense p x p operators built by their
    definitions, the summation oracle rescaled to the candidate scale and
    the decomposition oracle: each property is a matrix identity A B = C,
    checked in the Frobenius norm."""
    # rounding leaves Frobenius residuals below 5e-16 * p (measured for
    # p < 400); a wrong constant leaves one of order sqrt(p)
    tol = 1e-9 * p
    eye = np.eye(p)

    def dense(target, source):
        if _omega(*target.sigma, *source.sigma, p):
            return averaging_by_summation(target, source) * (scale / averaging_scale(p))
        return coordinate_change_by_decomposition(target, source)

    rl = Realization.of(1, 0, p)
    rm = Realization.of(0, 1, p)
    if not np.linalg.norm(dense(rl, rl) - eye) <= tol:
        raise IntertwinerConstructionError("normalization fails")
    f_lm = dense(rl, rm)
    f_ml = dense(rm, rl)
    if not np.linalg.norm(f_lm @ f_ml - eye) <= tol:
        raise IntertwinerConstructionError("returning pair is not the identity")
    for triple in (((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (1, 0))):
        first, middle, last = (Realization.of(s1, s2, p) for s1, s2 in triple)
        composite = dense(first, middle) @ dense(middle, last)
        if not np.linalg.norm(composite - dense(first, last)) <= tol:
            raise IntertwinerConstructionError("convolution fails on an anchor triple")
    for a in (2 % p, p - 1):
        if a == 1:
            continue
        chi = legendre_symbol(a, p)
        # transversals off the canonical ones' lines, so that the
        # coordinate change carries its phases
        inv = pow(a, -1, p)
        target_scaled = Realization(p, (0, a), (inv, 1))
        f_scaled = dense(target_scaled, rl)
        back = bare_coordinate_change(rm, target_scaled)
        if not np.linalg.norm(back @ f_scaled - chi * f_ml) <= tol:
            raise IntertwinerConstructionError("sign rule fails in target slot")
        source_scaled = Realization(p, (a, 0), (0, -inv))
        f_scaled = dense(rm, source_scaled)
        fwd = bare_coordinate_change(source_scaled, rl)
        if not np.linalg.norm(f_scaled @ fwd - chi * f_ml) <= tol:
            raise IntertwinerConstructionError("sign rule fails in source slot")
    for g in (SympMatrix(1, 1, 0, 1, p), SympMatrix(0, 1, -1, 0, p)):
        gm, phase_m = geometric_action(rm, g)
        gl, phase_l = geometric_action(rl, g)
        conjugated = (phase_m[:, np.newaxis] * f_ml) * np.conj(phase_l)[np.newaxis, :]
        if not np.linalg.norm(conjugated - dense(gm, gl)) <= tol:
            raise IntertwinerConstructionError("invariance fails")


def records_by_transport_to_every_line(fn: HeckeEigenfunction, kind: str) -> np.ndarray:
    """The sweep's record table of one prime in all realizations, the long
    way: fn transported to every line of line_sigmas and each moved
    block scored on its own, the blocks' rows joined in line order, so the
    rows go by line, then character, then basis vector."""
    return np.concatenate([
        supremum_records(fn if r == fn.realization else transport(fn, r), kind)[0]
        for r in every_line(fn.p)])


def orbit_move(fn: HeckeEigenfunction, torus: HeckeTorus, j: int,
               target: Realization) -> HeckeEigenfunction:
    """fn carried by the torus element g^j to target, which must lie on the
    line g^j carries fn's line to: the geometric action of g^j, then the
    canonical operator between the two gauges of that line.

    It is hecke.torus_orbits' relation built in full: each column equals
    transport's to target up to the phase conj(chi_k(g^j)), which the
    normalization then fixes.
    """
    t = torus_powers(torus)[j]
    image, phases = geometric_action(fn.realization, t)
    if _omega(*image.sigma, *target.sigma, fn.p):
        raise ValueError(f"g^{j} moves {fn.realization.tag()} off the line of {target.tag()}")
    moved = intertwine(target, image, phases[:, np.newaxis] * fn.vectors)
    return HeckeEigenfunction(target, _normalize_columns(moved, fn.p), fn.characters)


def four_column_basis(torus: HeckeTorus, r: Realization) -> tuple[np.ndarray, np.ndarray]:
    """(labels, basis) as hecke._character_basis gives them, every character
    by pivoted Gram-Schmidt: the i-th vector of character k is P_k delta_b at
    the base point b = 0..3 of largest remaining point mass (the least b
    among masses tied to PIVOT_TIE_TOL / p), less its part along the vectors
    already chosen, normalised.  The four columns rho(g^j)[:, b] are
    evaluated entry by entry and taken along the torus by one FFT."""
    p, n = r.p, torus.order
    ch = weil_chirps(r, torus_elements(torus))
    y = np.arange(p)
    base = y[:4]
    mass = _mirror(_along_torus(_half_diagonals(ch))).real  # [k, x] = P_k[x, x]
    mult = np.rint(mass.sum(axis=1)).astype(np.int64)
    cols = _along_torus(weil_entries(ch, y, base[:, np.newaxis]))  # [k, b] = P_k delta_b
    units = np.zeros((int(mult.max()), n, p), dtype=np.complex128)
    for i in range(units.shape[0]):
        ks = np.flatnonzero(mult > i)
        prev = units[:i][:, ks]
        left = mass[ks[:, np.newaxis], base] - (np.abs(prev[:, :, base]) ** 2).sum(axis=0)
        pivot = (left >= left.max(axis=1, keepdims=True) - PIVOT_TIE_TOL / p).argmax(axis=1)
        if p * left[np.arange(ks.size), pivot].min() < BASE_MASS_FLOOR:
            raise RuntimeError("a base point without mass carries an eigenvector")
        col = cols[ks, pivot]
        if i:
            at_pivot = np.conj(prev[:, np.arange(ks.size), pivot])  # (i, K)
            col -= (prev * at_pivot[:, :, np.newaxis]).sum(axis=0)
        units[i, ks] = col / np.linalg.norm(col, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n), mult)
    rank = y - np.repeat(np.cumsum(mult) - mult, mult)
    return labels, units[rank, labels].T


def records_csv_by_rows(records: np.ndarray) -> str:
    """The text of sweep.csv with every row formatted on its own, the
    realization as the tag of line l of every_line(p)."""
    head = f"# schema: {SWEEP_SCHEMA}\n" + ",".join(
        ["p", "kind", "realization", "character", "multiplicity", "sup", "argmax",
         "a_max", "pass"]) + "\n"
    lines = {p: every_line(p) for p in set(records["p"].tolist())}
    tags = [lines[p][l].tag()
            for p, l in zip(records["p"].tolist(), records["realization"].tolist())]
    rows = zip(*(records[name].tolist() for name in RECORD_DTYPE.names[:2]), tags,
               *(records[name].tolist() for name in RECORD_DTYPE.names[3:7]),
               (records["sup"] * records["sup"]).tolist(),
               np.where(records["passed"], "true", "false").tolist())
    return head + "".join("%d,%s,%s,%d,%d,%.12g,%d,%.12g,%s\n" % row for row in rows)
