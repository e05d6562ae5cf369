"""Tangle measures: one-tangle, two-tangle, pure three-tangle, and the
ray-extension upper bound on the three-tangle of rank-2 three-qubit states.

The upper bound works on Bloch vectors in the ball of the rank-2 support:
the four W-class states spanned by the support (roots of a quartic, mapped
to the sphere by stereographic projection) define a zero-tangle simplex;
a state outside it is bounded by extending the ray from the simplex mean
(the uniform W-mixture) through the state to the sphere, and rescaling the
surface state's exact three-tangle by the squared trace-norm ratio.

``tangle_columns`` is the engine: it takes a stack of four-qubit amplitude
vectors and returns every one-tangle, two-tangle and three-tangle bound as
arrays. Each kind of marginal is a stack of matricizations of the tensor
(2 x 2^(n-1) per focus, 4 x 2^(n-2) per pair, 8x2 per triple of four
qubits), so no reduced density matrix is formed, and the bound runs on the
Bloch vectors of all triples of all states at once. The bound makes no
LAPACK call: a triple's spectrum and support come from the closed-form
eigendecomposition of its 2x2 Gram matrix (``_rank2_support``) and the W
roots from a closed-form, backward-stable quartic solver (``_wclass_roots``),
both elementwise over the stack. The tau matrices' singular values are a
LAPACK call per small matrix, the same whatever the stack size, so a
state's numbers do not depend on the stack it came in. ``pure_tangles``
(2-8 qubits) is a one-state view of the same code, and
``BoundColumns.result`` reads one bound as a TangleBoundResult.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .qstate import PureState

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Nodes for recovering the quartic coefficients of tau3(e1 + z e2) by
# exact interpolation; the inverse Vandermonde is fixed once.
_QUARTIC_NODES = np.array([0.0, 1.0, -1.0, 1.0j, -1.0j])
_QUARTIC_VINV = np.linalg.inv(np.vander(_QUARTIC_NODES, 5, increasing=True))

# RANK_TOL, DEGREE_TOL and NORM_TOL were measured on verify --samples 300 --seed
# 20260823, the sweeps of classes 2-6 over 0..2 step 0.01, and table1.
RANK_TOL = 1e-8  # on p2, a triple marginal's smaller eigenvalue; measured: pure 0, mixed >= 1.8e-6
SUPPORT_TOL = 1e-8  # NNLS residual cut; measured: members <= 6.4e-16, non-members >= 7.3e-4
PI_TOL = 1e-9  # on |r - p| of pi-coincidence; measured: coincident <= 5.6e-16, others >= 0.045
VANISHING_TOL = 1e-14  # on the largest quartic coefficient; measured: <= 2.4e-15 vs >= 5.0e-9
DEGREE_TOL = 1e-12  # relative to the largest quartic coefficient; measured: <= 5.0e-16 vs >= 1.6e-11
POLISH_STEPS = 2  # guarded Newton steps after Ferrari, see _quartic_roots
NORM_TOL = 1e-12  # on |<psi|psi> - 1| of a pure-state input; measured: <= 6.7e-16

# Bound methods; a method column holds indices into this tuple.
METHODS = ("exact-pure", "simplex-zero", "pi-coincidence", "rdl-line")
EXACT_PURE, SIMPLEX_ZERO, PI_COINCIDENCE, RDL_LINE = range(4)
RDL_DIAGNOSTICS = ("kappa", "trace_norm_ratio", "tau3_phi", "raw_value")

PAIRS = tuple(combinations((1, 2, 3, 4), 2))
TRIPLES = tuple(combinations((1, 2, 3, 4), 3))


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first component above 1e-12 in modulus is
    real positive; a stack of vectors is fixed along its last axis."""
    big = np.abs(v) > 1e-12
    pivot = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)
    pivot = np.where(big.any(axis=-1, keepdims=True), pivot, 1.0)
    return v * (pivot.conjugate() / np.abs(pivot))


@cache
def _unfoldings(n: int, keeps: tuple) -> np.ndarray:
    """Flat amplitude indices of the kept-by-rest matricizations of an
    n-qubit tensor, one per kept set; rows follow the kept qubits' bits."""
    t = np.arange(2**n).reshape((2,) * n)
    out = []
    for keep in keeps:
        axes = [q - 1 for q in keep] + [q for q in range(n) if q + 1 not in keep]
        out.append(t.transpose(axes).reshape(2 ** len(keep), -1))
    return np.stack(out)


@dataclass(frozen=True)
class TangleBoundResult:
    """Upper bound on the three-tangle of a rank-2 three-qubit state."""

    value: float
    method: str  # one of METHODS
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


class BoundColumns(NamedTuple):
    """Three-tangle bounds of a stack of rank-2 marginals, one entry per
    marginal: the value, the method (an index into METHODS), the
    RDL_DIAGNOSTICS of a ray bound and the weights of a simplex-zero
    member, NaN where the bound has none."""

    value: np.ndarray
    method: np.ndarray
    rdl: np.ndarray  # (..., 4)
    weights: np.ndarray  # (..., 4)

    @classmethod
    def empty(cls, k: int, method: int) -> "BoundColumns":
        rdl, weights = np.full((2, k, 4), np.nan)
        return cls(np.zeros(k), np.full(k, method), rdl, weights)

    def result(self, index) -> TangleBoundResult:
        """The bound at ``index`` as a TangleBoundResult."""
        code = int(self.method[index])
        diagnostics = {}
        if code == RDL_LINE:
            diagnostics = dict(zip(RDL_DIAGNOSTICS, self.rdl[index].tolist()))
        elif code == SIMPLEX_ZERO and not np.isnan(self.weights[index][0]):
            diagnostics = {"weights": self.weights[index].tolist()}
        return TangleBoundResult(float(self.value[index]), METHODS[code], diagnostics)


def _tau3_quartic_form(c: np.ndarray) -> complex:
    """Degree-4 polynomial in the amplitudes whose modulus (times 4) is the
    three-tangle; index is the bitstring rst with qubit 1 most significant."""
    return (
        c[0] ** 2 * c[7] ** 2
        + c[1] ** 2 * c[6] ** 2
        + c[2] ** 2 * c[5] ** 2
        + c[4] ** 2 * c[3] ** 2
        - 2.0
        * (
            c[0] * c[7] * c[1] * c[6]
            + c[0] * c[7] * c[2] * c[5]
            + c[0] * c[7] * c[4] * c[3]
            + c[1] * c[6] * c[2] * c[5]
            + c[1] * c[6] * c[3] * c[4]
            + c[4] * c[3] * c[2] * c[5]
        )
        + 4.0 * (c[0] * c[3] * c[5] * c[6] + c[7] * c[4] * c[2] * c[1])
    )


def three_tangle_pure(psi3: PureState) -> float:
    """Closed-form three-tangle of a three-qubit pure state."""
    if psi3.n_qubits != 3:
        raise ValueError(f"three_tangle_pure expects 3 qubits, got {psi3.n_qubits}")
    return float(min(4.0 * abs(_tau3_quartic_form(psi3.amplitudes)), 1.0))


# -- the rank-2 bound in the support frame ------------------------------------------
#
# A rank-2 three-qubit state is given by its spectrum (p1 >= p2) and the rows
# e1, e2 of its support; in that frame the state is diag(p1, p2), a support
# vector v stands for v[0] e1 + v[1] e2, and a state is its Bloch vector, with
# e1 the north pole. Every helper takes a stack of K states.


def _quartic_coeffs(support: np.ndarray) -> np.ndarray:
    """Coefficients, low to high, of p(z) = form(e1 + z e2) for supports
    (..., 2, 8); the four triples of a state (..., 4, 2, 8) share one matrix
    product, whatever the stack's length."""
    vecs = support[..., None, 0, :] + _QUARTIC_NODES[:, None] * support[..., None, 1, :]
    vals = _tau3_quartic_form(np.moveaxis(vecs, -1, 0))  # (..., nodes)
    return vals @ _QUARTIC_VINV.T


def _quartic_degree(coeffs: np.ndarray) -> np.ndarray:
    """Degree of each quartic after dropping coefficients below DEGREE_TOL
    times the largest; -1 where the polynomial vanishes identically (its
    largest coefficient is below VANISHING_TOL)."""
    mag = np.abs(coeffs)
    scale = mag.max(axis=1)
    keep = mag >= DEGREE_TOL * scale[:, None]
    degree = 4 - np.argmax(keep[:, ::-1], axis=1)
    return np.where(scale < VANISHING_TOL, -1, degree)


# Cube roots of unity, for the three roots of a cubic.
_CUBE_ROOTS_OF_1 = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both roots of each monic quadratic z^2 + b z + c: the one of larger
    modulus from the formula whose sum does not cancel, the other as c over it
    (0 where both are 0, b = c = 0)."""
    s = np.sqrt(b * b - 4.0 * c)
    big = -0.5 * np.where(b.real * s.real + b.imag * s.imag < 0.0, b - s, b + s)
    return big, c / np.where(big == 0.0, 1.0, big)


def _cubic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The three roots (K, 3) of each monic cubic z^3 + a z^2 + b z + c, by
    Cardano's formula with the cube of larger modulus."""
    p = b - a * a / 3.0
    q = (2.0 * a * a * a - 9.0 * a * b + 27.0 * c) / 27.0
    s = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    u3 = -0.5 * np.where(q.real * s.real + q.imag * s.imag < 0.0, q - 2.0 * s, q + 2.0 * s)
    u = np.power(u3, 1.0 / 3.0)[:, None] * _CUBE_ROOTS_OF_1
    # u = 0 only where p = q = 0, and then v = 0.
    return u - p[:, None] / (3.0 * np.where(u == 0.0, 1.0, u)) - a[:, None] / 3.0


def _depressed_factors(p, q, r) -> tuple:
    """Monic quadratic factors (x^2 + a1 x + b1)(x^2 + a2 x + b2) of each
    depressed quartic x^4 + p x^2 + q x + r, by Ferrari's method.

    Each root m of the resolvent cubic pairs the roots: a1 = -a2 = sqrt(m) is
    the sum of a pair and b1 + b2 = p + m. The pairing with the largest |m| is
    taken, so that no step divides by a vanishing sum. b1, b2 then follow
    from b1 b2 = r (either order) or from a1 (b2 - b1) = q; each loses the
    other equation where it is ill-conditioned (b1 ~ b2, or a small a1), so
    of the three candidates the one that best keeps the equation it did not
    use, relative to the size of its terms, wins.
    """
    m = _cubic_roots(2.0 * p, p * p - 4.0 * r, -q * q)  # (K, 3)
    largest = np.argmax(m.real * m.real + m.imag * m.imag, axis=1)
    m = np.take_along_axis(m, largest[:, None], axis=1)[:, 0]
    a, y = np.sqrt(m), p + m
    b1, b2 = _quadratic_roots(-y, r)
    bq = 0.5 * y - 0.5 * q / np.where(a == 0.0, 1.0, a)  # a = 0 only where p = q = r = 0
    a_abs, b_abs = np.abs(a), np.abs(b1) + np.abs(b2)
    with np.errstate(invalid="ignore"):  # 0/0 where all terms vanish: exact
        error = np.stack([
            np.abs(a * (b2 - b1) - q) / (a_abs * b_abs + np.abs(q)),
            np.abs(a * (b1 - b2) - q) / (a_abs * b_abs + np.abs(q)),
            np.abs(bq * (y - bq) - r) / (np.abs(bq * (y - bq)) + np.abs(r)),
        ])  # fmt: skip
    best = np.argmin(np.nan_to_num(error), axis=0)
    lo = np.choose(best, [b1, b2, bq])
    return a, lo, -a, y - lo


def _vieta_error(roots: np.ndarray, monic: tuple, scale: np.ndarray) -> np.ndarray:
    """Largest difference between the coefficients (z^3, z^2, z, 1) of
    prod (z - z_k) over the roots (K, 4) and those of the monic quartics,
    over ``scale``; inf where not finite."""
    z1, z2, z3, z4 = roots.T
    s12, s34, p12, p34 = z1 + z2, z3 + z4, z1 * z2, z3 * z4
    a3, a2, a1, a0 = monic
    error = np.abs(s12 + s34 + a3)
    error = np.fmax(error, np.abs(p12 + p34 + s12 * s34 - a2))
    error = np.fmax(error, np.abs(s12 * p34 + s34 * p12 + a1))
    error = np.fmax(error, np.abs(p12 * p34 - a0))
    return np.where(error < np.inf, error / scale, np.inf)  # NaN fails the test too


def _polished(roots: np.ndarray, error: np.ndarray, monic: tuple, scale: np.ndarray) -> tuple:
    """One Newton step on the factorization (z - z1)(z - z2) (z - z3)(z - z4)
    of each monic quartic into the quadratics z^2 + a1 z + b1 and
    z^2 + a2 z + b2, kept only where the roots of the new factors have a
    smaller ``_vieta_error`` than the given one; the roots and their error.

    The step solves the 4x4 Jacobian of the product's coefficients in closed
    form. Its determinant is the resultant of the two factors, small where
    they share a root cluster; such a step is then not kept.
    """
    a1, b1 = -(roots[:, 0] + roots[:, 1]), roots[:, 0] * roots[:, 1]
    a2, b2 = -(roots[:, 2] + roots[:, 3]), roots[:, 2] * roots[:, 3]
    c3, c2, c1, c0 = monic
    r1, r2 = c3 - a1 - a2, c2 - b1 - b2 - a1 * a2
    r3, r4 = c1 - a1 * b2 - a2 * b1, c0 - b1 * b2
    da, db, g = a1 - a2, b1 - b2, a1 * b2 - a2 * b1
    x = r1 * g + r2 * db - r3 * da
    with np.errstate(all="ignore"):
        det = db * db + da * g
        step = (r1 * (a1 * g + b1 * db) - r2 * g - r3 * db + r4 * da) / det
        new = np.stack([
            *_quadratic_roots(a1 + step, b1 + (b1 * x + r4 * (a1 * da - db)) / det),
            *_quadratic_roots(a2 + r1 - step, b2 - (b2 * x + r4 * (a2 * da - db)) / det),
        ], axis=1)  # fmt: skip
        new_error = _vieta_error(new, monic, scale)
    better = new_error < error
    return np.where(better[:, None], new, roots), np.where(better, new_error, error)


def _quartic_roots(monic: tuple) -> np.ndarray:
    """The four roots (K, 4) of each monic quartic z^4 + A z^3 + B z^2 + C z + D,
    given (A, B, C, D).

    Ferrari's method runs on the quartic shifted to the mean of its roots,
    where a root cluster sits near 0 and each resolvent step is relative to
    the cluster's own size. Shifting the roots back costs accuracy in small
    roots next to a far one, so POLISH_STEPS guarded Newton steps on the
    factorization in the original variable follow (``_polished``). Each step
    is kept only where it lowers the Vieta error (relative to the largest
    coefficient, the leading 1 included), so the roots stay the exact roots of
    a quartic within roundoff of the given one: a backward-stable solver,
    which keeps the mean of the roots' Bloch vectors well conditioned even
    where single roots of a fourfold cluster are not.
    """
    a3, a2, a1, a0 = monic
    h = 0.25 * a3
    hh = h * h
    p = a2 - 6.0 * hh
    q = a1 - 2.0 * a2 * h + 8.0 * hh * h
    r = a0 - a1 * h + a2 * hh - 3.0 * hh * hh
    f1, g1, f2, g2 = _depressed_factors(p, q, r)
    roots = np.stack([*_quadratic_roots(f1, g1), *_quadratic_roots(f2, g2)], axis=1) - h[:, None]
    scale = np.fmax(np.fmax(np.abs(a3), np.abs(a2)), np.fmax(np.abs(a1), np.abs(a0)))
    scale = np.fmax(scale, 1.0)
    error = _vieta_error(roots, monic, scale)
    for _ in range(POLISH_STEPS):
        roots, error = _polished(roots, error, monic, scale)
    return roots


def _wclass_roots(coeffs: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Roots (K, 4) of each polynomial sum_k coeffs[k] z^k (K, 5) up to its
    ``_quartic_degree`` d >= 0: the d finite roots sorted by ``np.sort_complex``,
    then NaN for the 4 - d roots at infinity. Closed forms by degree, each
    elementwise over its rows, so a row's roots do not depend on the others."""
    roots = np.full((len(coeffs), 4), np.nan, dtype=complex)
    lead = np.take_along_axis(coeffs, np.maximum(degree, 0)[:, None], axis=1)
    monic = coeffs[:, :4] / np.where(lead == 0.0, 1.0, lead)  # lead = 0 only in degree -1
    # Each degree's rows, skipped when there are none: a solver's fixed cost
    # is that of its numpy calls, whatever the number of rows.
    four, three, two, one = (degree == d for d in (4, 3, 2, 1))
    if four.any():
        roots[four] = _quartic_roots(tuple(monic[four, ::-1].T))
    if three.any():
        roots[three, :3] = _cubic_roots(monic[three, 2], monic[three, 1], monic[three, 0])
    if two.any():
        roots[two, :2] = np.stack(_quadratic_roots(monic[two, 1], monic[two, 0]), axis=1)
    roots[one, 0] = -monic[one, 0]
    return np.sort_complex(roots)


def _wclass_bloch(roots: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Bloch vectors (K, 4, 3) of the W-class states e1 + z e2 for the roots
    (K, 4) of ``_wclass_roots``, by stereographic projection; the 4 - d roots
    at infinity are e2, the south pole."""
    z2 = np.abs(roots) ** 2
    w = np.stack([2.0 * roots.real, 2.0 * roots.imag, 1.0 - z2], axis=-1) / (1.0 + z2)[..., None]
    finite = np.arange(4) < degree[:, None]
    return np.where(finite[..., None], w, np.array([0.0, 0.0, -1.0]))


def _augmented(w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The system "3 Bloch coordinates + normalization" of each point: the
    columns [w_k; 1] (K, 4, 4) of its simplex and the right side [r; 1] (K, 4)."""
    a = np.ones((len(w), 4, 4))
    a[:, :3, :] = w.swapaxes(1, 2)
    return a, np.concatenate([r, np.ones((len(r), 1))], axis=1)


# The three vertices of each face of a simplex; face f leaves out vertex f.
_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


def _plane_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A proven lower bound (K,) on the NNLS residual min |A x - b| over
    x >= 0 of each system (``_augmented``), from the face planes of its
    simplex; NaN where no face spans a plane.

    For any y, y.(b - A x) >= y.b - (sum x) E with E = max_k (y.a_k)^+, and
    sum x <= 1 + |A x - b| because the last row of A is ones and that of b
    is 1; so |A x - b| >= (y.b - E) / (|y| + E). The augmented normal y of a
    face plane has y.a_k = 0 at the face's vertices, and of its two
    orientations the one with the fourth vertex on the negative side has
    E = 0 but for roundoff; then y.b > 0 where r lies beyond the face.

    Each y is scaled to largest entry 1, so every entry of A, b and y is at
    most 1 in modulus and eta = 16 eps |y|_1 exceeds the roundoff of each
    computed product y.a_k or y.b (a 4-term dot product needs 4 eps |y|_1),
    of |y|, and of the quotient's own steps; it is charged against the bound
    on each of them.
    """
    v = a[:, :3, _FACES].transpose(0, 2, 3, 1)  # (K, face, vertex, 3)
    n = np.cross(v[:, :, 1] - v[:, :, 0], v[:, :, 2] - v[:, :, 0])
    y = np.concatenate([n, -np.sum(n * v[:, :, 0], axis=-1, keepdims=True)], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        y /= np.abs(y).max(axis=-1, keepdims=True)
        y = np.concatenate([y, -y], axis=1)  # both orientations of each face
        eta = 16.0 * np.finfo(float).eps * np.abs(y).sum(axis=-1)
        spill = np.maximum(0.0, (y @ a).max(axis=-1) + eta)
        bound = ((y @ b[..., None])[..., 0] - eta - spill) / (
            np.linalg.norm(y, axis=-1) + eta + spill
        )
    return np.fmax.reduce(bound, axis=1)


# Support s of a four-column system holds column j iff bit j of s is set:
# _HOLDS[j] (16, 1) marks the supports that hold column j, and support s took
# column j after the partial support _PREFIX[j][s] = s mod 2^j of columns < j.
_HOLDS = (np.arange(16)[None, :, None] >> np.arange(4)[:, None, None]) & 1 == 1
_PREFIX = [np.arange(16) % 2**j for j in range(4)]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of u * v over the leading axis of length 4, term by term in order,
    so that an entry's bits do not depend on the other entries."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative least squares of stacked systems (``_augmented``) with four
    columns: the weights x >= 0 (K, 4) that minimize |A x - b|, and that
    residual (K,).

    The optimum is the least-squares solution on its own support, and no
    other support's nonnegative solution has a smaller residual; so all 16
    supports are solved, one with a negative or non-finite weight is dropped,
    and the least residual |A x - b|, recomputed from x, wins. Each support
    is solved by modified Gram-Schmidt on its columns and the right side,
    which is backward stable, so a member's residual is roundoff whatever the
    conditioning. No cutoff decides a rank: a dependent column gets a zero
    pivot (non-finite weights) or wild weights, and wild nonnegative weights
    cannot win, since the last row of A is ones and that of b is 1, so
    sum x <= 1 + |A x - b|.

    The supports share their Gram-Schmidt steps: each of the 2^j partial
    supports over the columns before j either skips column j or takes it,
    so the 16 supports cost 15 projection steps in all. The arrays are laid
    out (row, column, support, K), so every step is elementwise over the
    stack.
    """
    k = len(a)
    # The columns not yet processed and the right side, reduced by each
    # partial support: (row, column, support, K).
    m = np.concatenate([a, b[:, :, None]], axis=2).transpose(1, 2, 0)[:, :, None]
    pivots, rows = [], []  # per column j: R[j, j] and R[j, j+1:] (with the right side)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            col, rest = m[:, 0], m[:, 1:]
            pivot = np.sqrt(_dot(col, col))
            q = col / pivot
            row = _dot(q[:, None], rest)
            m = np.concatenate([rest, rest - q[:, None] * row], axis=2)  # skip, take
            pivots.append(pivot)
            rows.append(row)
        x = np.zeros((4, 16, k))
        for j in range(3, -1, -1):
            row, pivot = rows[j][:, _PREFIX[j]], pivots[j][_PREFIX[j]]
            t = row[-1]
            for i in range(j + 1, 4):
                t = t - row[i - j - 1] * x[i]
            x[j] = np.where(_HOLDS[j], t / pivot, 0.0)
        res = _dot(a.transpose(2, 1, 0)[:, :, None], x[:, None]) - b.T[:, None]
        resid = np.sqrt(_dot(res, res))
    resid[~((x >= 0.0).all(axis=0) & (resid < np.inf))] = np.inf  # NaN fails both
    best = np.argmin(resid, axis=0)
    stack = np.arange(k)
    return x[:, best, stack].T, resid[best, stack]


def _simplex_solve(w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each Bloch vector r (K, 3) is a convex mixture of its four
    simplex vertices w (K, 4, 3), and the nonnegative weights (K, 4) of a
    member's mixture (NaN for a point a face plane rules out).

    r is a member iff the nonnegative least-squares fit of its system
    "3 Bloch coordinates + normalization" has a residual below SUPPORT_TOL.
    A point whose face-plane bound on that residual (``_plane_bound``)
    exceeds SUPPORT_TOL is not a member without a fit; the other points are
    fitted together in one ``_nnls`` call. The fit needs no rank decision:
    repeated roots and coplanar vertices take the same path, and a member
    gets one of its decompositions.
    """
    member = np.zeros(len(w), dtype=bool)
    weights = np.full((len(w), 4), np.nan)
    a, b = _augmented(w, r)
    fit = np.flatnonzero(~(_plane_bound(a, b) > SUPPORT_TOL))
    if fit.size:
        weights[fit], resid = _nnls(a[fit], b[fit])
        member[fit] = resid < SUPPORT_TOL
    return member, weights


def _mixed_bounds(spectrum: np.ndarray, coeffs: np.ndarray, w: np.ndarray) -> BoundColumns:
    """Bounds of mixed states with quartics (K, 5) whose W-class states have
    Bloch vectors w (K, 4, 3).

    In the Bloch ball of the support, rho = diag(p1, p2) is r = (0, 0, p1 - p2),
    the W-class states are unit vectors w_k and pi is their mean p. The trace
    norm of rho - pi is |r - p|. A state outside the simplex is bounded on the
    ray from p through r, extended to the sphere at r + t (r - p).
    """
    bounds = BoundColumns.empty(len(spectrum), PI_COINCIDENCE)
    p = w.mean(axis=1)
    r = np.zeros_like(p)
    r[:, 2] = spectrum[:, 0] - spectrum[:, 1]
    dist = np.linalg.norm(r - p, axis=1)
    rest = np.flatnonzero(~(dist < PI_TOL))
    if rest.size == 0:
        return bounds
    member, weights = _simplex_solve(w[rest], r[rest])
    bounds.method[rest[member]] = SIMPLEX_ZERO
    bounds.weights[rest[member]] = weights[member]
    out = rest[~member]
    if out.size == 0:
        return bounds

    # |r + t d| = 1 with d = r - p is |d|^2 t^2 + 2 (r.d) t - 4 p1 p2 = 0
    # (1 - |r|^2 = 4 p1 p2 for unit trace). Rank 2 makes the constant term
    # negative, so there is exactly one positive root; take it without
    # cancellation.
    r, d, dist = r[out], r[out] - p[out], dist[out]
    rd = np.einsum("ki,ki->k", r, d)
    c = 4.0 * spectrum[out, 0] * spectrum[out, 1]
    sq = np.sqrt(rd * rd + dist * dist * c)
    t = np.where(rd > 0.0, c / (rd + sq), (sq - rd) / (dist * dist))

    # The surface state: a unit vector with Bloch vector n = r + t d, from the
    # closed form whose leading entry stays away from zero on n's hemisphere.
    n = r + t[:, None] * d
    n_len = np.linalg.norm(n, axis=1)
    xy = n[:, 0] + 1j * n[:, 1]
    v = np.where(
        (n[:, 2] >= 0.0)[:, None],
        np.stack([n_len + n[:, 2], xy], axis=1),
        np.stack([xy.conj(), n_len - n[:, 2]], axis=1),
    )
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # form(v0 e1 + v1 e2) = sum_k c_k v0^(4-k) v1^k for the unit surface state.
    powers = np.arange(5)
    form = np.sum(coeffs[out] * v[:, :1] ** (4 - powers) * v[:, 1:] ** powers, axis=1)
    tau3_phi = np.minimum(4.0 * np.abs(form), 1.0)
    ratio = 1.0 / (1.0 + t) ** 2
    raw = ratio * tau3_phi
    bounds.value[out] = raw  # in [0, 1]: t >= 0, so ratio is in (0, 1]
    bounds.method[out] = RDL_LINE
    bounds.rdl[out] = np.stack([t * dist, ratio, tau3_phi, raw], axis=1)
    return bounds


def _rank2_bounds(spectrum: np.ndarray, support: np.ndarray) -> BoundColumns:
    """Three-tangle upper bounds of stacked rank <= 2 three-qubit states,
    given their spectra (..., 2) and orthonormal support rows (..., 2, 8);
    the columns are flat over the leading shape.

    Error budget of the W-class roots: with every other step alike, the bound
    from ``_wclass_roots`` and the bound from the same quartics' roots at 40
    digits (mpmath) differ by at most 5.6e-10 over the 9,300 quartics of
    ``verify --samples 300 --seed 20260823`` (companion-matrix eigvals:
    2.2e-9), 3.3e-10 over ``table1`` and 7.5e-10 over the class-4 ``sweep``
    of 0..2 step 0.01; no method differs. Near-fourfold roots carry it:
    their single roots are conditioned to about 1e-4, their symmetric
    functions to roundoff.
    """
    coeffs = _quartic_coeffs(support).reshape(-1, 5)
    spectrum = spectrum.reshape(-1, 2)
    degree = _quartic_degree(coeffs)
    pure = spectrum[:, 1] < RANK_TOL
    # Unless set below: a mixed state whose polynomial vanishes identically,
    # so its whole span is W-class, a simplex-zero bound without weights.
    bounds = BoundColumns.empty(len(spectrum), SIMPLEX_ZERO)
    for i in np.flatnonzero(pure):
        # coeffs[:, 0] = p(0) = form(e1), the pure state's own quartic. The
        # scalar abs, as in three_tangle_pure: numpy's array abs of complex
        # values differs from it in the last bit for about a third of them.
        bounds.value[i] = min(4.0 * abs(coeffs[i, 0]), 1.0)
        bounds.method[i] = EXACT_PURE
    mixed = np.flatnonzero(~pure & (degree >= 0))
    w = _wclass_bloch(_wclass_roots(coeffs[mixed], degree[mixed]), degree[mixed])
    for column, part in zip(bounds, _mixed_bounds(spectrum[mixed], coeffs[mixed], w)):
        column[mixed] = part
    return bounds


def _pure_columns(amps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One-tangles (S, n) by focus and two-tangles (S, n(n-1)/2) by pair, in
    combinations order, of a stack of n-qubit amplitude vectors (S, 2^n)."""
    norm2 = np.sum(amps.real**2 + amps.imag**2, axis=1)
    bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= NORM_TOL))  # also catches NaN
    if bad.size:
        raise ValueError(f"state has squared norm {norm2[bad[0]]}, expected 1")
    qubits = tuple(range(1, n + 1))

    # tau1 = 4 det(M M^dag) for the 2 x 2^(n-1) focus-by-rest reshape M.
    m = amps[:, _unfoldings(n, tuple((f,) for f in qubits))]
    g = m @ m.conj().swapaxes(-1, -2)
    det = g[..., 0, 0].real * g[..., 1, 1].real - np.abs(g[..., 0, 1]) ** 2
    tau1 = np.clip(4.0 * det, 0.0, 1.0)

    # Wootters' tau matrix M^T (Syy) M of the 4 x 2^(n-2) pair-by-rest reshape
    # has the spin-flip spectrum lambda_i as its singular values; below four
    # qubits it has fewer than four, and the missing ones are 0. Above four,
    # M^T = Q R first: Q (R Syy R^T) Q^T has the singular values of the 4x4
    # R Syy R^T, so M is replaced by R^T.
    m = amps[:, _unfoldings(n, tuple(combinations(qubits, 2)))]
    if m.shape[-1] > 4:
        m = np.linalg.qr(m.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    lams = np.linalg.svd(m.swapaxes(-1, -2) @ _SIGMA_YY @ m, compute_uv=False)
    missing = np.zeros(lams.shape[:-1] + (max(0, 4 - lams.shape[-1]),))
    lams = np.concatenate([lams, missing], axis=-1)
    conc = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return tau1, np.minimum(conc * conc, 1.0)


def pure_tangles(psi: PureState) -> tuple[dict, dict]:
    """One-tangles by focus and two-tangles by pair of an n-qubit pure state,
    from its amplitude tensor; qubits are numbered 1..n and pairs are
    increasing tuples."""
    n = psi.n_qubits
    tau1, tau2 = _pure_columns(psi.amplitudes[None], n)
    qubits = range(1, n + 1)
    return dict(zip(qubits, tau1[0].tolist())), dict(zip(combinations(qubits, 2), tau2[0].tolist()))


class TangleColumns(NamedTuple):
    """Every tangle of a stack of S four-qubit pure states: one-tangles
    (S, 4) by focus, two-tangles (S, 6) by pair in PAIRS order, and the
    three-tangle bounds (S, 4) by triple in TRIPLES order."""

    tau1: np.ndarray
    tau2: np.ndarray
    tau3: BoundColumns


def _rank2_support(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum (..., 2), descending, and the phase-fixed orthonormal
    support rows (..., 2, 8) of the marginal M M^dag of each triple-by-rest
    reshape M = [x y], given its columns x and y (..., 8), from the
    eigendecomposition of the 2x2 Gram matrix G = M^dag M in closed form.

    p1 comes from the trace and the eigenvalue gap, and p2 = det G / p1 with
    det G the sum of the squared 2x2 minors of M (Cauchy-Binet), so a small
    p2 keeps its relative accuracy. Each support vector is M v / |M v| for the
    eigenvector v of G, the second one first made orthogonal to the first.
    Where p2 = 0 exactly the second vector is 0; a pure marginal's bound
    reads only the first. Every step is elementwise or a sum over the last
    axis, so a marginal's numbers do not depend on the stack.
    """
    g11 = np.sum(x.real * x.real + x.imag * x.imag, axis=-1)
    g22 = np.sum(y.real * y.real + y.imag * y.imag, axis=-1)
    g12 = np.sum(x.conj() * y, axis=-1)
    d = 0.5 * (g11 - g22)
    gap = np.sqrt(d * d + g12.real * g12.real + g12.imag * g12.imag)
    p1 = 0.5 * (g11 + g22) + gap
    minors = x[..., :, None] * y[..., None, :]
    minors = minors - minors.swapaxes(-1, -2)  # each pair of rows twice
    det = 0.5 * np.sum(minors.real * minors.real + minors.imag * minors.imag, axis=(-2, -1))
    # The eigenvector (v0, v1) of p1, from the column of G - p2 I that does
    # not cancel; where G = p1 I (e = 0), any basis.
    e = gap + np.abs(d)
    v0 = np.where(d < 0.0, g12, np.where(e == 0.0, 1.0, e))[..., None]
    v1 = np.where(d < 0.0, e, g12.conj())[..., None]
    u1 = x * v0 + y * v1
    u2 = y * v0.conj() - x * v1.conj()
    u1 = u1 / np.sqrt(np.sum(u1.real * u1.real + u1.imag * u1.imag, axis=-1, keepdims=True))
    u2 = u2 - u1 * np.sum(u1.conj() * u2, axis=-1, keepdims=True)
    n2 = np.sqrt(np.sum(u2.real * u2.real + u2.imag * u2.imag, axis=-1, keepdims=True))
    u2 = u2 / np.where(n2 > 0.0, n2, 1.0)
    return np.stack([p1, det / p1], axis=-1), _phase_fix(np.stack([u1, u2], axis=-2))


def _triple_bounds(amps: np.ndarray) -> BoundColumns:
    """The three-tangle bounds (S, 4) by triple, in TRIPLES order, of a stack
    of normalized four-qubit amplitude vectors (S, 16) that the caller has
    checked."""
    # The two columns (S, 4, 8) of each 8x2 triple-by-rest reshape, each
    # contiguous, so that every sum sees the same layout in any stack.
    x, y = np.ascontiguousarray(np.moveaxis(amps[:, _unfoldings(4, TRIPLES)], -1, 0))
    bounds = _rank2_bounds(*_rank2_support(x, y))
    shape = (len(amps), len(TRIPLES))
    return BoundColumns(*(c.reshape(shape + c.shape[1:]) for c in bounds))


def tangle_columns(amps: np.ndarray) -> TangleColumns:
    """Every tangle of a stack of normalized four-qubit amplitude vectors
    (S, 16), from the amplitude tensors."""
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] != 16:
        raise ValueError(f"expected four-qubit amplitudes of shape (S, 16), got {amps.shape}")
    return TangleColumns(*_pure_columns(amps, 4), _triple_bounds(amps))
