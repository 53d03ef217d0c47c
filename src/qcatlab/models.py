"""p-dimensional models of the Heisenberg representation, the canonical
intertwining operators between them, and the resulting linear action of
SL2(F_p) satisfying the Egorov compatibility with the Heisenberg action.

Coordinates.  A realization is an enhanced Lagrangian (line L with a marked
vector sigma) together with a transversal vector tau normalized so that
omega(tau, sigma) = 1, both held as integer pairs; the model is then
literally an array of p amplitudes, f(x) = value of the equivariant function
at the group point (x*tau, 0).  Every function on the group that transforms
by the central character under left translation by L x Z is determined by
these p values:

    f((v, z)) = psi(z + x*l/2) * f(x)   where   v = x*tau + l*sigma.

In this gauge the model attached to sigma = (0, 1), tau = (1, 0) carries the
textbook action [pi(a, b, z) f](x) = psi(z + b*x + a*b/2) * f(x + a).

Intertwiners.  For transverse lines the span of intertwining operators is
the averaging over the target line; the canonical normalization multiplies
that raw sum by scale(p) * chi_q(omega(sigma_target, sigma_source)), where
chi_q is the Legendre character and scale(p) is the normalized quadratic
Gauss sum (1/p) sum_t psi(-t^2/2), of modulus p^-1/2.  Each entry of the raw
sum is psi of a quadratic form in (y, x), so the operator is chirp * DFT *
chirp, psi(q_a y^2) psi(beta x y) psi(q_b x^2).  For realizations on a
shared line the canonical operator is chi_q of the enhancement ratio times
the coordinate change of the identity map, a permutation times phases (the
identity for identical realizations).  Each quantity has one formula: the
shape and the constant from the four pairings of two frames, which
_chirps_between reads into one operator form, a WeilChirps batch, and the
model of g.r with its geometric phase _image.  weil_chirps is that
batch from the models of g.r, the geometric phase in its column chirp.
_apply_chirps alone applies a batch, in O(n p log p): `intertwine`, the
dense operators (canonical_intertwiner, raw_averaging, weil_op), hecke's
residual and the family validation all run it; weil_entries evaluates
entries from a batch.  The construction fails loudly if the family does not
satisfy normalization, invariance, convolution and the sign rule, checked
once per prime on three probe vectors by three batches of _apply_chirps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import half_mod, legendre_symbol, pow_mod, unit_roots
from .groups import SympMatrix

__all__ = [
    "Realization",
    "WeilOperator",
    "IntertwinerConstructionError",
    "heisenberg_op",
    "raw_averaging",
    "canonical_intertwiner",
    "intertwine",
    "averaging_scale",
    "geometric_action",
    "weil_op",
    "WeilChirps",
    "weil_chirps",
    "weil_entries",
    "commutant_dimension",
]


class IntertwinerConstructionError(RuntimeError):
    """The intertwiner family fails a characterizing property; implementation bug."""


@dataclass(frozen=True)
class Realization:
    """An enhanced Lagrangian, the marked vector sigma of a line (in two
    dimensions every line is Lagrangian), plus the transversal gauge tau
    fixing coordinates, both as integer pairs mod p.

    tau is a vector off the line with omega(tau, sigma) = 1, which also rules
    out sigma = 0.  of() uses the representative of the first line of
    line_sigmas transverse to sigma, which makes the gauge a deterministic
    function of sigma alone; custom gauges (e.g. a torus-adapted
    transversal) may be passed explicitly.
    """

    p: int
    sigma: tuple[int, int]
    tau: tuple[int, int]

    def __post_init__(self):
        p = self.p
        for name in ("sigma", "tau"):
            v1, v2 = getattr(self, name)
            object.__setattr__(self, name, (v1 % p, v2 % p))
        if _omega(*self.tau, *self.sigma, p) != 1:
            raise ValueError("transversal must satisfy omega(tau, sigma) = 1")

    @classmethod
    def of(cls, s1: int, s2: int, p: int) -> "Realization":
        return cls(p, (s1, s2), _canonical_tau(s1, s2, p))

    @classmethod
    def standard(cls, p: int) -> "Realization":
        """The position model: sigma = (0, 1), tau = (1, 0)."""
        return cls.of(0, 1, p)

    def tag(self) -> str:
        return "%d:%d" % self.sigma


@dataclass
class WeilOperator:
    g: SympMatrix
    realization: Realization
    matrix: np.ndarray


def _decompose(r: Realization, v1, v2, z):
    """Coordinates (x, z0) with f((v, z)) = psi(z0) * f(x); vectorized."""
    p = r.p
    s1, s2 = r.sigma
    t1, t2 = r.tau
    x = (s2 * v1 - s1 * v2) % p
    l = (t1 * v2 - t2 * v1) % p
    z0 = (z + half_mod(x * l, p)) % p
    return x, z0


def heisenberg_op(r: Realization, a: int, b: int, z: int) -> np.ndarray:
    """Matrix of the right-translation action of the Heisenberg element
    ((a, b), z) on the model of r."""
    p = r.p
    t1, t2 = r.tau
    x = np.arange(p)
    v1 = (x * t1 + a) % p
    v2 = (x * t2 + b) % p
    z = (z + half_mod(x * (t1 * b - t2 * a), p)) % p
    xp, z0 = _decompose(r, v1, v2, z)
    m = np.zeros((p, p), dtype=np.complex128)
    m[x, xp] = unit_roots(p)[z0]
    return m


def _omega(u1, u2, v1, v2, p: int):
    return (u1 * v2 - u2 * v1) % p


def _canonical_tau(s1, s2, p: int):
    """The transversal Realization.of pairs with sigma = (s1, s2),
    elementwise over integer arrays.  line_sigmas starts (1, 0), (1, 1):
    the first is transverse unless sigma lies on it, and then the second
    is; it is scaled to omega(tau, sigma) = 1."""
    c = (s2 % p == 0) * 1
    inv = pow_mod(s2 - c * s1, p - 2, p)
    return inv, c * inv % p


def _frame(r: Realization) -> tuple:
    return (*r.sigma, *r.tau)


class WeilChirps(NamedTuple):
    """A batch of canonical operators, or of rho(g) on the model of a
    realization for a batch of elements g, as the coefficients of their
    chirps: the one operator form, which _apply_chirps applies and
    weil_entries evaluates.

    Every element has entries [y, x] = coef psi(qa y^2 + beta x y + qb x^2),
    except that the elements at the indices `shared` of the flattened batch,
    whose two lines are one (for rho(g): +-I, and every element when the line
    is one the torus fixes), have beta = 0 and vanish off x = lift[i] y.
    For rho(g), qb includes the geometric phase mu / 2 of the column.  coef,
    qa, beta and qb have the batch's shape.
    """

    p: int
    coef: np.ndarray
    qa: np.ndarray
    beta: np.ndarray
    qb: np.ndarray
    shared: np.ndarray
    lift: np.ndarray


def _chirps_between(targets, sources, p: int, scale) -> WeilChirps:
    """The canonical operators model(source) -> model(target) of a batch of
    frame pairs, as one WeilChirps, from four pairings of the frames.

    Frames are (sigma1, sigma2, tau1, tau2), ints or integer arrays
    broadcast against each other, the batch their shape; primes mark the
    source's.  Every field follows from w = omega(sigma, sigma'),
    c = omega(tau, sigma'), alpha = omega(tau', sigma) and
    gamma = omega(tau', tau), with h = 1 / 2w (0 for w = 0, as pow_mod
    inverts it).

    Transverse lines, w != 0: row y of the raw averaging sums over
    v = m sigma + y tau, which lands at source coordinate x = m w + y c, so
    each (y, x) has the one term m = (x - c y) / w, of value
    psi(x l / 2 - m y / 2) with l = omega(tau', v) = alpha m + gamma y.
    Expanding gives q_a = c h, beta = (gamma w - 1 - c alpha) h and
    q_b = alpha h, and the constant is scale chi_q(w).

    A shared line, w = 0: the point (y tau, 0) lands at source coordinate
    x = c y with l = gamma y, so row y is psi(c gamma y^2 / 2) f(c y): lift c
    and twist c gamma / 2 in qa, while beta and qb are 0 since h is.  With
    sigma = e sigma' the constant is chi_q(e) = chi_q(1 / e) = chi_q(c).
    """
    s1, s2, t1, t2 = targets
    u1, u2, r1, r2 = sources
    w = _omega(s1, s2, u1, u2, p)
    c = _omega(t1, t2, u1, u2, p)
    alpha = _omega(r1, r2, s1, s2, p)
    gamma = _omega(r1, r2, t1, t2, p)
    on_line = w == 0
    h = pow_mod(2 * w, p - 2, p)
    chi = legendre_symbol(np.where(on_line, c, w), p)
    shared = np.flatnonzero(on_line)
    return WeilChirps(p, np.where(on_line, chi, scale * chi),
                      np.where(on_line, half_mod(c * gamma % p, p), c * h % p),
                      (gamma * w - 1 - c * alpha) % p * h % p, alpha * h % p,
                      shared, np.ravel(c)[shared])


def _apply_chirps(ch: WeilChirps, block: np.ndarray) -> np.ndarray:
    """Each operator of a chirps batch applied to block, in O(n p log p):
    batch + (p, n), from a (p, n) block shared by the batch or a (B, p, n)
    block, one per element of the flattened batch.

    Row x is multiplied by psi(qb x^2); a transverse element then reads row
    y of the FFT along x at k = -beta y (numpy's FFT computes
    sum_x exp(-2 pi i k x / p) f[x]), a shared one row x = lift y; row y is
    multiplied by psi(qa y^2), and last all by the constant.  numpy's FFT
    calls no BLAS, so the result does not depend on the thread count.
    """
    p = ch.p
    coef, qa, beta, qb = (np.reshape(v, (-1, 1)) for v in ch[1:5])
    roots, y = unit_roots(p), np.arange(p)
    square = y * y % p
    rows = -beta * y % p
    rows[ch.shared] = np.outer(ch.lift, y) % p
    out = roots[qb * square % p][:, :, np.newaxis] * block
    # one in-place FFT per run of transverse elements: a call costs ~30 us
    edges = [-1, *ch.shared.tolist(), len(out)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo + 1:
            np.fft.fft(out[lo + 1:hi], axis=1, out=out[lo + 1:hi])
    out = out[np.arange(len(out))[:, np.newaxis], rows]
    out *= roots[qa * square % p][:, :, np.newaxis]
    out *= coef[:, :, np.newaxis]
    return out.reshape(np.shape(ch.coef) + out.shape[1:])


@lru_cache(maxsize=None)
def averaging_scale(p: int) -> complex:
    """The per-prime scalar multiplying the raw averaging sum.

    It is the normalized quadratic Gauss sum (1/p) sum_t psi(-t^2/2), built
    from roots of unity alone, and is checked against the characterizing
    properties of the family once per prime before it is returned.
    """
    t = np.arange(p)
    scale = complex(unit_roots(p)[half_mod(-t * t, p)].sum() / p)
    _validate_family(p, scale)
    return scale


# Weyl sequences x * theta mod 1 at three irrationals: deterministic,
# unit-modulus and independent probes, built without a random generator
PROBE_FREQUENCIES = (2 ** 0.5, 3 ** 0.5, (1 + 5 ** 0.5) / 2)


def _probes(p: int) -> np.ndarray:
    """The (p, 3) block of probe vectors exp(2 pi i frac(x theta_j))."""
    x = np.arange(p)[:, np.newaxis]
    return np.exp(2j * np.pi * np.mod(x * np.array(PROBE_FREQUENCIES), 1.0))


def _validate_family(p: int, scale: complex) -> None:
    """Assert the four characterizing properties on a fixed instance set.

    Each property is an operator identity A B = C, checked as A(Bv) = Cv on
    the probe block v, with no p x p matrix.  Its 21 operators run through
    _apply_chirps, as production's do, in three batches: those on v itself,
    those on their images, then those on v's phased and re-gauged copies.
    The sign rule compares operators in one gauge through the coordinate
    change without its Legendre sign, a shared-line element of constant 1.
    The checks run in one fixed order (normalization, returning pair,
    convolution, sign rule, invariance), so the first property to fail is
    the one reported.  Convolution on a transverse triple pins the phase of
    scale: the product of two intertwiners is quadratic in it and the third
    intertwiner linear, so -scale fails there and passes every other check.
    """
    v = _probes(p)
    # ||v|| = sqrt(3 p); rounding leaves residuals below 1.3e-14 ||v|| at
    # every prime p <= 2003, growing slowly with p through the prime-length
    # FFT, while a wrong constant or operator leaves one of order ||v||
    # (2 ||v|| for -scale): 1e-9 ||v|| parts them far beyond any p used
    tol = 1e-9 * np.linalg.norm(v)

    def check(lhs, rhs, failure):
        if not np.linalg.norm(lhs - rhs) <= tol:
            raise IntertwinerConstructionError(failure)

    def chirps(pairs, bare=()):
        """One batch: the canonical operators between (target, source)
        pairs, then the coordinate changes of the pairs bare, constant 1."""
        every = [*pairs, *bare]
        target, source = (tuple(np.array([_frame(r) for r in rs]).T) for rs in zip(*every))
        ch = _chirps_between(target, source, p, scale)
        return ch._replace(coef=np.where(np.arange(len(every)) < len(pairs), ch.coef, 1))

    rl = Realization.of(1, 0, p)
    rm = Realization.of(0, 1, p)
    triples = [[Realization.of(s1, s2, p) for s1, s2 in triple]
               for triple in (((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (1, 0)))]
    # sign rule in target and source slots, each a = 2, p - 1 with its
    # Legendre sign; the gauges' transversals lie off the canonical ones'
    # lines, so that the coordinate change carries its phases
    signs = [(legendre_symbol(a, p),
              Realization(p, (0, a), (pow(a, -1, p), 1)),
              Realization(p, (a, 0), (0, -pow(a, -1, p))))
             for a in (2, p - 1)]
    # invariance under one shear and one rotation-like element:
    # geo(g) F_{m,l} geo(g)^-1 = F_{g.m, g.l}
    moves = [(geometric_action(rm, g), geometric_action(rl, g))
             for g in (SympMatrix(1, 1, 0, 1, p), SympMatrix(0, 1, -1, 0, p))]
    on_v = _apply_chirps(chirps(
        [(rm, rl), *((middle, last) for _, middle, last in triples),
         *((target_scaled, rl) for _, target_scaled, _ in signs),
         *((first, last) for first, _, last in triples), (rl, rl)],
        [(source_scaled, rl) for _, _, source_scaled in signs]), v)
    # the returning pair composes to the identity (convolution + normalization)
    on_images = _apply_chirps(chirps(
        [(rl, rm), *((first, middle) for first, middle, _ in triples)],
        [(rm, target_scaled) for _, target_scaled, _ in signs]), on_v[:5])
    check(on_v[7], v, "normalization fails")
    check(on_images[0], v, "returning pair is not the identity")
    for i in (1, 2):
        check(on_images[i], on_v[i + 4], "convolution fails on an anchor triple")
    # only F_{m,l} v, the sign rule's target slots and the re-gauged copies
    # of v are read below: the rest goes before the last batch, to bound
    # the peak
    f_ml, in_targets = on_v[0].copy(), on_images[3:].copy()
    blocks = np.stack([*on_v[8:], *(w for _, (_, phase_l) in moves
                                     for w in (np.conj(phase_l)[:, np.newaxis] * v, v))])
    del on_v, on_images
    pairs = [(rm, source_scaled) for _, _, source_scaled in signs]
    pairs += [pair for (gm, _), (gl, _) in moves for pair in ((rm, rl), (gm, gl))]
    moved = _apply_chirps(chirps(pairs), blocks)
    for (chi, _, _), in_target, in_source in zip(signs, in_targets, moved):
        check(in_target, chi * f_ml, "sign rule fails in target slot")
        check(in_source, chi * f_ml, "sign rule fails in source slot")
    for ((_, phase_m), _), conjugated, direct in zip(moves, moved[2::2], moved[3::2]):
        check(phase_m[:, np.newaxis] * conjugated, direct, "invariance fails")


def _pull_back(g, v, p: int):
    """g^-1 v for g = (a, b, c, d) of determinant 1, elementwise."""
    a, b, c, d = g
    return (d * v[0] - b * v[1]) % p, (a * v[1] - c * v[0]) % p


def _image(r: Realization, g) -> tuple:
    """(frame of Realization.of(*g sigma), mu) for g = (a, b, c, d), ints
    or integer arrays: f -> f(g^-1 .) maps the model of r to that of g.r with
    phase psi(mu y^2 / 2) at y, since g^-1 tau' = u with omega(u, sigma) = 1
    and f((y u, 0)) = psi(y^2 omega(tau, u) / 2) f(y)."""
    p, (s1, s2) = r.p, r.sigma
    u1, u2 = (g[0] * s1 + g[1] * s2) % p, (g[2] * s1 + g[3] * s2) % p
    r1, r2 = _canonical_tau(u1, u2, p)
    u = _pull_back(g, (r1, r2), p)
    if np.count_nonzero(_omega(*u, s1, s2, p) != 1):
        raise RuntimeError("pulled-back transversal is not normalized")
    return (u1, u2, r1, r2), _omega(*r.tau, *u, p)


def geometric_action(r: Realization, g: SympMatrix) -> tuple[Realization, np.ndarray]:
    """The isomorphism model(r) -> model(g.r) induced by v -> v(g^{-1} .).

    In normalized gauges it is diagonal; the returned array holds the p unit
    phases, so the full matrix is np.diag(phases).
    """
    (u1, u2, r1, r2), mu = _image(r, (g.a, g.b, g.c, g.d))
    y = np.arange(r.p)
    return (Realization(r.p, (u1, u2), (r1, r2)),
            unit_roots(r.p)[half_mod(mu * y * y, r.p)])


def raw_averaging(target: Realization, source: Realization) -> np.ndarray:
    """Unnormalized sum over the target line, as a matrix source -> target.

    Requires transverse lines; for a shared line the sum degenerates to a
    multiple of the coordinate change and is rejected here.
    """
    p = target.p
    if source.p != p:
        raise ValueError(f"mismatched moduli: {p} vs {source.p}")
    if not _omega(*target.sigma, *source.sigma, p):
        raise ValueError("raw averaging needs transverse lines")
    chirps = _chirps_between(_frame(target), _frame(source), p, 1)._replace(coef=1)
    return _apply_chirps(chirps, np.eye(p))


def canonical_intertwiner(target: Realization, source: Realization) -> np.ndarray:
    """The canonical operator model(source) -> model(target) as a p x p
    matrix: intertwine applied to the identity."""
    return intertwine(target, source, np.eye(target.p))


def intertwine(target: Realization, source: Realization, block: np.ndarray) -> np.ndarray:
    """The canonical operator model(source) -> model(target) applied to a
    (p, n) block of columns, in O(n p log p): _apply_chirps of the pair's
    _chirps_between.

    A shared line gives the Legendre sign of the enhancement ratio times the
    coordinate change, a permutation times phases, which for identical
    realizations is the identity (lift 1, twist 0, sign 1); transverse lines
    give the normalized averaging, one FFT between chirps.
    """
    p = target.p
    if source.p != p:
        raise ValueError(f"mismatched moduli: {p} vs {source.p}")
    return _apply_chirps(_chirps_between(_frame(target), _frame(source), p,
                                         averaging_scale(p)), block)


def weil_op(r: Realization, g: SympMatrix) -> WeilOperator:
    """The linearized action of g on the model of r: the canonical
    intertwiner from the model of g.r after the geometric relabeling into
    it, applied to the identity from its weil_chirps.  By the convolution
    and invariance properties the map g -> matrix is an honest
    homomorphism, with no projective ambiguity.
    """
    if g.p != r.p:
        raise ValueError(f"mismatched moduli: {r.p} vs {g.p}")
    return WeilOperator(g, r, _apply_chirps(weil_chirps(r, (g.a, g.b, g.c, g.d)), np.eye(r.p)))


def weil_chirps(r: Realization, g) -> WeilChirps:
    """The chirp coefficients of weil_op(r, g) for a batch of elements.

    g = (a, b, c, d) holds the entries of SL2(F_p) elements as ints or
    integer arrays of one shape.  It is the canonical intertwiner from the
    model of g.r (_image), the _chirps_between that intertwine applies,
    times the geometric phase of the column, mu / 2 in qb.
    """
    p = r.p
    source, mu = _image(r, [np.asarray(e, dtype=np.int64) for e in g])
    ch = _chirps_between(_frame(r), source, p, averaging_scale(p))
    return ch._replace(qb=(ch.qb + half_mod(mu, p)) % p)


def _trailing(v, n: int) -> np.ndarray:
    """v with n unit axes appended, to broadcast against points of n axes."""
    return np.reshape(v, np.shape(v) + (1,) * n)


def weil_entries(ch: WeilChirps, y, x) -> np.ndarray:
    """Entries [y, x] of weil_op(r, g) for each element of a weil_chirps
    batch, with no p x p matrix: an array of shape batch + broadcast(y, x),
    so a batch of N against y = x = arange(p) gives N diagonals, and
    against x = b gives N columns at b.  The chirp formula covers the batch,
    and the elements that keep sigma's line (+-I in a generic realization)
    are then zeroed off x = lift y, on their rows alone."""
    p, n = ch.p, np.broadcast(y, x).ndim
    coef, qa, beta, qb = (_trailing(v, n) for v in ch[1:5])
    exponent = qa * (y * y % p) + beta * (x * y % p) + qb * (x * x % p)
    out = unit_roots(p).take(np.remainder(exponent, p, out=exponent))
    out *= coef
    if ch.shared.size:
        rows = out.reshape((-1,) + out.shape[np.ndim(ch.coef):])
        on_line = x == _trailing(ch.lift, n) * y % p
        rows[ch.shared] = np.where(on_line, rows[ch.shared], 0)
    return out


def _heis_generators() -> list[tuple[int, int, int]]:
    return [(1, 0, 0), (0, 1, 0)]


def commutant_dimension(r: Realization) -> int:
    """Dimension of the algebra commuting with the whole Heisenberg action.

    The first generator acts with p distinct eigenvalues, so any commuting X
    is diagonal in its eigenbasis; the entries of the second generator in that
    basis then tie diagonal values together, and the commutant dimension is
    the number of connected components of the resulting graph, the nullity of
    its Laplacian.
    """
    h1, h2 = _heis_generators()
    u1 = heisenberg_op(r, *h1)
    u2 = heisenberg_op(r, *h2)
    _, z = np.linalg.eig(u1)
    # u2 permutes u1's eigenlines: each entry is a phase or rounding (2e-13 at p = 199)
    ties = np.abs(np.linalg.solve(z, u2 @ z)) > 1e-8
    adjacency = (ties | ties.T).astype(float)
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    return r.p - int(np.linalg.matrix_rank(laplacian))
