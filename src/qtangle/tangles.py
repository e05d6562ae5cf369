"""Tangle measures of four-qubit pure states: one-tangles, two-tangles, and
the ray-extension upper bound on the three-tangle of each three-qubit
marginal (of rank at most 2), exact where the marginal is pure.

The upper bound works on Bloch vectors in the ball of the rank-2 support:
the four W-class states spanned by the support (roots of a quartic, mapped
to the sphere by stereographic projection) define a zero-tangle simplex,
whose members have bound 0 (simplex-zero; the simplex mean has weights 1/4);
a state outside it is bounded by extending the ray from the simplex mean
(the uniform W-mixture) through the state to the sphere, and rescaling the
surface state's exact three-tangle by the squared trace-norm ratio
(rdl-line). A pure state's bound is its own three-tangle (exact-pure).
Membership is decided by a nonnegative least-squares fit, after two proven
lower bounds on its residual have ruled out what they can: first along the
state's own ray, then by the simplex's face planes.

``tangle_columns`` is the engine: it takes a stack of four-qubit amplitude
vectors and returns every one-tangle, two-tangle and three-tangle bound as
arrays, read from two matricizations of the tensor (4x4 per pair, 8x2 per
triple, each a constant index table) through one 2x2 determinant kernel,
so no reduced density matrix is formed. A triple's spectrum and support
come from the closed-form eigendecomposition of its 2x2 Gram matrix
(``_rank2_support``), and the triple that leaves a focus out shares its
Schmidt spectrum, so tau1 = 4 p1 p2. Wootters' tau matrix of a pair has
mixed 2x2 determinants as entries. The bound runs on the Bloch vectors of
all triples of all states at once, with the W roots from a closed-form,
backward-stable quartic solver (``_wclass_roots``). Every three-tangle the
package computes is 4 |form| of one formula, ``_quartic_coeffs``: form is
Cayley's hyperdeterminant, the discriminant of det(A + t B) for the qubit-1
slices A, B, and the W quartic p(z) = form(e1 + z e2) has as coefficients
products of quadratics in z from the same 2x2 determinants; a pure
marginal's three-tangle is its constant term. Every step is elementwise
over the stack but the tau matrices' SVD, one LAPACK call per small matrix,
so a state's numbers do not depend on the stack. ``BoundColumns.result``
reads one bound as the dict ``tangle --json`` prints.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

# DEGREE_TOL and NORM_TOL were measured on verify --samples 300 --seed 20260823,
# the sweeps of classes 2-6 over 0..2 step 0.01, and table1.
# RANK_TOL is on p2, a triple marginal's smaller eigenvalue, and separates a
# pure marginal from a mixed one. Measured on verify --samples 4000 --seed
# 20260823, classes 1-9: the exactly pure class-9 triple (2, 3, 4) marginals
# have p2 <= 3.6e-32 (none is 0); the mixed ones go down to 4.7e-10 (class 6,
# sample 2799, triple (2, 3, 4)), then 8.1e-8. The sweeps and table1 have
# p2 = 0 or >= 3.3e-5.
RANK_TOL = 1e-20
SUPPORT_TOL = 1e-8  # NNLS residual cut; measured: members <= 6.4e-16, non-members >= 7.3e-4
PI_TOL = 1e-9  # on |r - p|, r taken as the simplex mean; measured: coincident <= 5.6e-16, others >= 0.045
VANISHING_TOL = 1e-14  # on the largest quartic coefficient; measured: <= 5.4e-16 vs >= 5.0e-9
DEGREE_TOL = 1e-12  # relative to the largest quartic coefficient; measured: <= 3.3e-16 vs >= 1.6e-11
POLISH_STEPS = 2  # guarded Newton steps after Ferrari, see _quartic_roots
NORM_TOL = 1e-12  # on |<psi|psi> - 1| of a pure-state input; measured: <= 6.7e-16

# Bound methods; a method column holds indices into this tuple.
METHODS = ("exact-pure", "simplex-zero", "rdl-line")
EXACT_PURE, SIMPLEX_ZERO, RDL_LINE = range(3)
RDL_DIAGNOSTICS = ("kappa", "trace_norm_ratio", "tau3_phi", "raw_value")


def _unfoldings(keeps: tuple) -> np.ndarray:
    """Flat amplitude indices of the kept-by-rest matricizations of a
    four-qubit tensor, one per kept set of k qubits; rows follow the kept
    qubits' bits, columns the other qubits' bits in order."""
    k, t = len(keeps[0]), np.arange(16).reshape(2, 2, 2, 2)
    moved = [np.moveaxis(t, np.subtract(keep, 1), range(k)) for keep in keeps]
    return np.stack(moved).reshape(len(keeps), 2**k, -1)


PAIRS = tuple(combinations((1, 2, 3, 4), 2))
TRIPLES = tuple(combinations((1, 2, 3, 4), 3))
_PAIR_UNFOLDINGS = _unfoldings(PAIRS)  # (6, 4, 4)
_TRIPLE_UNFOLDINGS = _unfoldings(TRIPLES)  # (4, 8, 2)


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first component above 1e-12 in modulus is
    real positive; a stack of vectors is fixed along its last axis."""
    big = np.abs(v) > 1e-12
    pivot = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)
    pivot = np.where(big.any(axis=-1, keepdims=True), pivot, 1.0)
    return v * (pivot.conjugate() / np.abs(pivot))


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
    def empty(cls, k: int) -> "BoundColumns":
        rdl, weights = np.full((2, k, 4), np.nan)
        return cls(np.zeros(k), np.full(k, SIMPLEX_ZERO), rdl, weights)

    def result(self, index) -> dict:
        """The bound at ``index`` as ``tangle --json`` prints it: its value,
        method name and diagnostics."""
        code = int(self.method[index])
        diagnostics = {}
        if code == RDL_LINE:
            diagnostics = dict(zip(RDL_DIAGNOSTICS, self.rdl[index].tolist()))
        elif code == SIMPLEX_ZERO and not np.isnan(self.weights[index][0]):
            diagnostics = {"weights": self.weights[index].tolist()}
        return {"value": float(self.value[index]), "method": METHODS[code], "diagnostics": diagnostics}


def _det2(a):
    """det [[a0, a1], [a2, a3]] of 2x2 matrices, their entries along the leading axis."""
    return a[0] * a[3] - a[1] * a[2]


def _mixed_det2(a, b):
    """det(a + b) - det a - det b of 2x2 matrices as in ``_det2``, without cancellation."""
    return a[0] * b[3] + a[3] * b[0] - a[1] * b[2] - a[2] * b[1]


def _tau3(form):
    """The three-tangle 4 |form| of unit states, capped at 1 against roundoff."""
    return np.minimum(4.0 * np.abs(form), 1.0)


# -- the rank-2 bound in the support frame ------------------------------------------
#
# A rank-2 three-qubit state is given by its spectrum (p1 >= p2) and the rows
# e1, e2 of its support; in that frame the state is diag(p1, p2), a support
# vector v stands for v[0] e1 + v[1] e2, and a state is its Bloch vector, with
# e1 the north pole. Every helper takes a stack of K states.


def _quadratic_product(p: tuple, q: tuple) -> list:
    """Coefficients, low to high, of the product of quadratics p, q (low to high)."""
    (p0, p1, p2), (q0, q1, q2) = p, q
    return [p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0, p1 * q2 + p2 * q1, p2 * q2]


def _quartic_coeffs(support: np.ndarray) -> np.ndarray:
    """Coefficients (..., 5), low to high, of p(z) = form(e1 + z e2) for
    supports (..., 2, 8), as m^2 - 4 a d for the quadratics a = det A(z),
    d = det B(z) and m, their mixed determinant, of the slices A1 + z A2 and
    B1 + z B2 of e1 + z e2. No interpolation: p(0) is form(e1) to the bit."""
    e1, e2 = np.moveaxis(support, (-2, -1), (0, 1))  # each (8, ...)
    a1, b1, a2, b2 = e1[:4], e1[4:], e2[:4], e2[4:]
    a = (_det2(a1), _mixed_det2(a1, a2), _det2(a2))
    d = (_det2(b1), _mixed_det2(b1, b2), _det2(b2))
    m = (_mixed_det2(a1, b1), _mixed_det2(a1, b2) + _mixed_det2(a2, b1), _mixed_det2(a2, b2))
    mm, ad = _quadratic_product(m, m), _quadratic_product(a, d)
    return np.stack([x - 4.0 * y for x, y in zip(mm, ad)], axis=-1)


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


def _certificate_bound(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The best of the proven lower bounds (K,) on the NNLS residual
    min |A x - b| over x >= 0 of each system (``_augmented``) that the
    certificates y (K, m, 4) and their opposites -y give; NaN where none is
    finite.

    For any y, y.(b - A x) >= y.b - (sum x) E with E = max_k (y.a_k)^+, and
    sum x <= 1 + |A x - b| because the last row of A is ones and that of b
    is 1; so |A x - b| >= (y.b - E) / (|y| + E). Both orientations come from
    the one product y.a_k: -y has E = max_k (-y.a_k)^+.

    Each y is scaled to largest entry 1, so every entry of A, b and y is at
    most 1 in modulus and eta = 16 eps |y|_1 exceeds the roundoff of each
    computed product y.a_k or y.b (a 4-term dot product needs 4 eps |y|_1),
    of |y|, and of the quotient's own steps; it is charged against the bound
    on each of them.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        y = y / np.abs(y).max(axis=-1, keepdims=True)
        eta = 16.0 * np.finfo(float).eps * np.abs(y).sum(axis=-1)
        ya, yb = y @ a, (y @ b[..., None])[..., 0]
        norm = np.linalg.norm(y, axis=-1) + eta
        up = np.maximum(0.0, ya.max(axis=-1) + eta)
        down = np.maximum(0.0, eta - ya.min(axis=-1))
        bound = np.fmax((yb - eta - up) / (norm + up), (-yb - eta - down) / (norm + down))
    return np.fmax.reduce(bound, axis=1)


def _ray_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_certificate_bound`` of each system along its own ray: y = [d; -d.p]
    for the vertex mean p and d = r - p, the ray ``_mixed_bounds`` extends.
    Then y.b = |d|^2 and y.a_k = d.(w_k - p), so the bound is positive where
    r lies beyond the plane normal to d through the vertex farthest along d."""
    p = a[:, :3].mean(axis=2)
    d = b[:, :3] - p
    y = np.concatenate([d, -np.sum(d * p, axis=1, keepdims=True)], axis=1)
    return _certificate_bound(y[:, None], a, b)


def _plane_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_certificate_bound`` of each system from the face planes of its
    simplex; NaN where no face spans a plane.

    The augmented normal y of a face plane has y.a_k = 0 at the face's
    vertices, and of y and -y the one with the fourth vertex on the negative
    side has E = 0 but for roundoff; then its product with b is positive
    where r lies beyond the face.
    """
    v = a[:, :3, _FACES].transpose(0, 2, 3, 1)  # (K, face, vertex, 3)
    n = np.cross(v[:, :, 1] - v[:, :, 0], v[:, :, 2] - v[:, :, 0])
    y = np.concatenate([n, -np.sum(n * v[:, :, 0], axis=-1, keepdims=True)], axis=-1)
    return _certificate_bound(y, a, b)


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
    # partial support: (row, column, support, K), contiguous.
    m = np.concatenate([a, b[:, :, None]], axis=2).transpose(1, 2, 0)[:, :, None]
    m = np.ascontiguousarray(m)
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
        at = np.ascontiguousarray(a.transpose(2, 1, 0))  # (column, row, K)
        res = _dot(at[:, :, None], x[:, None]) - b.T[:, None]
        resid = np.sqrt(_dot(res, res))
    resid[~((x >= 0.0).all(axis=0) & (resid < np.inf))] = np.inf  # NaN fails both
    best = np.argmin(resid, axis=0)
    stack = np.arange(k)
    return x[:, best, stack].T, resid[best, stack]


def _simplex_solve(w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each Bloch vector r (K, 3) is a convex mixture of its four
    simplex vertices w (K, 4, 3), and the nonnegative weights (K, 4) of a
    member's mixture (NaN for a point a certificate rules out).

    r is a member iff the nonnegative least-squares fit of its system
    "3 Bloch coordinates + normalization" has a residual below SUPPORT_TOL.
    A point whose lower bound on that residual exceeds SUPPORT_TOL is not a
    member without a fit: first the bound along its own ray (``_ray_bound``),
    which holds where the simplex is degenerate too, then, for the points it
    leaves, the face planes' (``_plane_bound``). The points left after both
    are fitted together in one ``_nnls`` call. The fit needs no rank
    decision: repeated roots and coplanar vertices take the same path, and a
    member gets one of its decompositions.
    """
    member = np.zeros(len(w), dtype=bool)
    weights = np.full((len(w), 4), np.nan)
    a, b = _augmented(w, r)
    fit = np.flatnonzero(~(_ray_bound(a, b) > SUPPORT_TOL))
    fit = fit[~(_plane_bound(a[fit], b[fit]) > SUPPORT_TOL)]
    if fit.size:
        weights[fit], resid = _nnls(a[fit], b[fit])
        member[fit] = resid < SUPPORT_TOL
    return member, weights


def _mixed_bounds(spectrum: np.ndarray, coeffs: np.ndarray, w: np.ndarray) -> BoundColumns:
    """Bounds of mixed states with quartics (K, 5) whose W-class states have
    Bloch vectors w (K, 4, 3).

    In the Bloch ball of the support, rho = diag(p1, p2) is r = (0, 0, p1 - p2),
    the W-class states are unit vectors w_k and pi is their mean p. The trace
    norm of rho - pi is |r - p|. A state within PI_TOL of p is a member with
    weights 1/4, without a fit. A state outside the simplex is bounded on the
    ray from p through r, extended to the sphere at r + t (r - p).
    """
    bounds = BoundColumns.empty(len(spectrum))
    p = w.mean(axis=1)
    r = np.zeros_like(p)
    r[:, 2] = spectrum[:, 0] - spectrum[:, 1]
    dist = np.linalg.norm(r - p, axis=1)
    at_pi = dist < PI_TOL
    bounds.weights[at_pi] = 0.25
    rest = np.flatnonzero(~at_pi)
    member, weights = _simplex_solve(w[rest], r[rest])
    bounds.weights[rest[member]] = weights[member]
    out = rest[~member]

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
    tau3_phi = _tau3(form)
    ratio = 1.0 / (1.0 + t) ** 2
    raw = ratio * tau3_phi
    bounds.value[out] = raw  # in [0, 1]: t >= 0, so ratio is in (0, 1]
    bounds.method[out] = RDL_LINE
    bounds.rdl[out] = np.stack([t * dist, ratio, tau3_phi, raw], axis=1)
    return bounds


def _rank2_bounds(spectrum: np.ndarray, support: np.ndarray) -> BoundColumns:
    """Three-tangle upper bounds of stacked rank <= 2 three-qubit states,
    given their spectra (..., 2) and orthonormal support rows (..., 2, 8);
    the columns take the leading shape.

    Error budget of the W-class roots: with every other step alike, the bound
    from ``_wclass_roots`` and the bound from the same quartics' roots at 40
    digits (mpmath) differ by at most 5.6e-10 over the 9,300 quartics of
    ``verify --samples 300 --seed 20260823`` (companion-matrix eigvals:
    2.2e-9), 3.3e-10 over ``table1`` and 7.5e-10 over the class-4 ``sweep``
    of 0..2 step 0.01; no method differs. Near-fourfold roots carry it:
    their single roots are conditioned to about 1e-4, their symmetric
    functions to roundoff.
    """
    shape = spectrum.shape[:-1]
    coeffs = _quartic_coeffs(support).reshape(-1, 5)
    spectrum = spectrum.reshape(-1, 2)
    degree = _quartic_degree(coeffs)
    pure = spectrum[:, 1] < RANK_TOL
    # Unless set below: a mixed state whose polynomial vanishes identically,
    # so its whole span is W-class, a simplex-zero bound without weights.
    bounds = BoundColumns.empty(len(spectrum))
    # coeffs[:, 0] = p(0) = form(e1), the pure state's own quartic.
    bounds.value[pure] = _tau3(coeffs[pure, 0])
    bounds.method[pure] = EXACT_PURE
    mixed = np.flatnonzero(~pure & (degree >= 0))
    w = _wclass_bloch(_wclass_roots(coeffs[mixed], degree[mixed]), degree[mixed])
    for column, part in zip(bounds, _mixed_bounds(spectrum[mixed], coeffs[mixed], w)):
        column[mixed] = part
    return BoundColumns(*(c.reshape(shape + c.shape[1:]) for c in bounds))


class TangleColumns(NamedTuple):
    """Every tangle of a stack of S four-qubit pure states: one-tangles
    (S, 4) by focus, two-tangles (S, 6) by pair in PAIRS order, and the
    three-tangle bounds (S, 4) by triple in TRIPLES order."""

    tau1: np.ndarray
    tau2: np.ndarray
    tau3: BoundColumns


def _rank2_support(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spectra (S, 4, 2), descending, and the phase-fixed orthonormal
    support rows (S, 4, 2, 8) of the triple marginals M M^dag, in TRIPLES
    order, of a checked stack of four-qubit amplitude vectors (S, 16), for
    the triple-by-rest reshapes M = [x y]: from the eigendecomposition of
    the 2x2 Gram matrix G = M^dag M in closed form.

    p1 comes from the trace and the eigenvalue gap, and p2 = det G / p1 with
    det G the sum of the squared 2x2 minors of M, each pair of rows once
    (Cauchy-Binet), so a small p2 keeps its relative accuracy. Each support
    vector is M v / |M v| for the eigenvector v of G, the second one first
    made orthogonal to the first.
    Where p2 = 0 exactly the second vector is 0; a pure marginal's bound
    reads only the first. Every step is elementwise or a sum over rows in a
    fixed order, so a marginal's numbers do not depend on the stack.
    """
    # The two columns (S, 4, 8) of each 8x2 triple-by-rest reshape, each
    # contiguous, so that every sum sees the same layout in any stack.
    x, y = np.ascontiguousarray(np.moveaxis(amps[:, _TRIPLE_UNFOLDINGS], -1, 0))
    g11 = np.sum(x.real * x.real + x.imag * x.imag, axis=-1)
    g22 = np.sum(y.real * y.real + y.imag * y.imag, axis=-1)
    g12 = np.sum(x.conj() * y, axis=-1)
    d = 0.5 * (g11 - g22)
    gap = np.sqrt(d * d + g12.real * g12.real + g12.imag * g12.imag)
    p1 = 0.5 * (g11 + g22) + gap
    # The minors (28, ...) of rows k < l from slices, not index copies; rows
    # first in memory, so the sum adds them pair after pair for every state.
    xr, yr = (np.ascontiguousarray(np.moveaxis(c, -1, 0)) for c in (x, y))
    minors = np.concatenate(
        [_det2((xr[k : k + 1], xr[k + 1 :], yr[k : k + 1], yr[k + 1 :])) for k in range(7)]
    )
    det = np.sum(minors.real * minors.real + minors.imag * minors.imag, axis=0)
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


def _two_tangles(amps: np.ndarray) -> np.ndarray:
    """The two-tangles (S, 6) by pair, in PAIRS order, of a checked stack of
    four-qubit amplitude vectors (S, 16): Wootters' squared concurrence from
    the singular values of the tau matrix M^T (Syy) M of each 4x4 pair-by-rest
    reshape M, whose entry (a, b) is minus (a sign the singular values ignore)
    the mixed 2x2 determinant of columns a, b of M as [[M0, M1], [M2, M3]]."""
    c = np.moveaxis(amps[:, _PAIR_UNFOLDINGS], -2, 0)
    lams = np.linalg.svd(_mixed_det2(c[..., :, None], c[..., None, :]), compute_uv=False)
    conc = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return np.minimum(conc * conc, 1.0)


def tangle_columns(amps: np.ndarray) -> TangleColumns:
    """Every tangle of a stack of normalized four-qubit amplitude vectors
    (S, 16), from the amplitude tensors."""
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] != 16:
        raise ValueError(f"expected four-qubit amplitudes of shape (S, 16), got {amps.shape}")
    norm2 = np.sum(amps.real**2 + amps.imag**2, axis=1)
    bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= NORM_TOL))  # also catches NaN
    if bad.size:
        raise ValueError(f"state has squared norm {norm2[bad[0]]}, expected 1")
    spectrum, support = _rank2_support(amps)
    # tau1 = 4 p1 p2: focus f + 1 shares its Schmidt spectrum with TRIPLES[3 - f].
    p = spectrum[:, ::-1]
    tau1 = np.minimum(4.0 * p[..., 0] * p[..., 1], 1.0)
    return TangleColumns(tau1, _two_tangles(amps), _rank2_bounds(spectrum, support))
