"""Tangle measures: one-tangle, two-tangle, pure three-tangle, and the
ray-extension upper bound on the three-tangle of rank-2 three-qubit states.

The upper bound works on Bloch vectors in the ball of the rank-2 support:
the four W-class states spanned by the support (roots of a quartic, mapped
to the sphere by stereographic projection) define a zero-tangle simplex;
a state outside it is bounded by extending the ray from the simplex mean
(the uniform W-mixture) through the state to the sphere, and rescaling the
surface state's exact three-tangle by the squared trace-norm ratio.

``pure_tangles`` computes the one- and two-tangles of a pure state of 2-8
qubits from its amplitude tensor, and ``four_qubit_tangles`` adds the
three-tangle bounds of a four-qubit state. Each kind of marginal is a stack
of matricizations of the tensor (2 x 2^(n-1) per focus, 4 x 2^(n-2) per pair,
8x2 per triple of four qubits), so no reduced density matrix is formed, and
the bound runs on the Bloch vectors of all triples at once.
``three_tangle_upper`` applies the same bound to one three-qubit density
matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import combinations

import numpy as np
from scipy.optimize import nnls

from .qstate import RANK_TOL, DensityMatrix, PureState, _phase_fix, rank2_decompose

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Nodes for recovering the quartic coefficients of tau3(e1 + z e2) by
# exact interpolation; the inverse Vandermonde is fixed once.
_QUARTIC_NODES = np.array([0.0, 1.0, -1.0, 1.0j, -1.0j])
_QUARTIC_VINV = np.linalg.inv(np.vander(_QUARTIC_NODES, 5, increasing=True))

SUPPORT_TOL = 1e-8  # NNLS residual cut; measured: members <= 6.0e-16, non-members >= 9.7e-5
PI_TOL = 1e-9  # on |r - p| of pi-coincidence; measured: coincident <= 5.6e-16, others >= 0.045
VANISHING_TOL = 1e-14  # on the largest quartic coefficient; measured: <= 2.4e-15 vs >= 5.0e-9
DEGREE_TOL = 1e-12  # relative to the largest quartic coefficient
NORM_TOL = 1e-12  # on |<psi|psi> - 1| of a pure-state input

_TRIPLES = tuple(combinations((1, 2, 3, 4), 3))


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
    method: str  # exact-pure | simplex-zero | pi-coincidence | rdl-line
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    """Coefficients, low to high, of p(z) = form(e1 + z e2) for (K, 2, 8) supports."""
    vecs = support[:, None, 0, :] + _QUARTIC_NODES[:, None] * support[:, None, 1, :]
    vals = _tau3_quartic_form(np.moveaxis(vecs, -1, 0))  # (K, nodes)
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


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Sorted roots of stacked polynomials (K, d+1) of one common degree d
    (coefficients low to high, nonzero leading term), as eigenvalues of
    their companion matrices."""
    k, d = coeffs.shape[0], coeffs.shape[1] - 1
    if d == 0:
        return np.empty((k, 0), dtype=complex)
    comp = np.zeros((k, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    return np.sort_complex(np.linalg.eigvals(comp))


def _wclass_bloch(roots: np.ndarray) -> np.ndarray:
    """Bloch vectors (K, 4, 3) of the W-class states e1 + z e2 for the finite
    roots (K, d), by stereographic projection; the 4 - d roots at infinity
    are e2, the south pole."""
    k, d = roots.shape
    w = np.zeros((k, 4, 3))
    w[:, :, 2] = -1.0
    z2 = np.abs(roots) ** 2
    w[:, :d] = np.stack([2.0 * roots.real, 2.0 * roots.imag, 1.0 - z2], axis=-1)
    w[:, :d] /= (1.0 + z2)[..., None]
    return w


def _simplex_solve(w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each Bloch vector r (K, 3) is a convex mixture of its four
    simplex vertices w (K, 4, 3), and the nonnegative weights (K, 4) of the
    closest mixture.

    One nonnegative least-squares fit of the system "3 Bloch coordinates +
    normalization" per point; r is a member iff its residual is below
    SUPPORT_TOL. The fit needs no rank decision: repeated roots and coplanar
    vertices take the same path, and a member gets one of its decompositions.
    """
    a = np.ones((len(w), 4, 4))
    a[:, :3, :] = w.swapaxes(1, 2)
    b = np.concatenate([r, np.ones((len(r), 1))], axis=1)
    weights, resid = map(np.array, zip(*(nnls(a_i, b_i) for a_i, b_i in zip(a, b))))
    return resid < SUPPORT_TOL, weights


def _mixed_bounds(spectrum: np.ndarray, coeffs: np.ndarray, degree: int) -> list:
    """Bounds of mixed states whose quartics share one degree >= 0.

    In the Bloch ball of the support, rho = diag(p1, p2) is r = (0, 0, p1 - p2),
    the W-class states are unit vectors w_k and pi is their mean p. The trace
    norm of rho - pi is |r - p|. A state outside the simplex is bounded on the
    ray from p through r, extended to the sphere at r + t (r - p).
    """
    w = _wclass_bloch(_companion_roots(coeffs[:, : degree + 1]))
    p = w.mean(axis=1)
    r = np.zeros_like(p)
    r[:, 2] = spectrum[:, 0] - spectrum[:, 1]
    dist = np.linalg.norm(r - p, axis=1)
    results = [TangleBoundResult(value=0.0, method="pi-coincidence") for _ in spectrum]
    rest = np.flatnonzero(~(dist < PI_TOL))
    if rest.size == 0:
        return results
    member, weights = _simplex_solve(w[rest], r[rest])
    for i, wts in zip(rest[member], weights[member].tolist()):
        results[i] = TangleBoundResult(
            value=0.0, method="simplex-zero", diagnostics={"weights": wts}
        )
    out = rest[~member]
    if out.size == 0:
        return results

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
    columns = [col.tolist() for col in (np.clip(raw, 0.0, 1.0), t * dist, ratio, tau3_phi, raw)]
    for i, (value, kappa, ratio_i, tau3_i, raw_i) in zip(out, zip(*columns)):
        results[i] = TangleBoundResult(
            value=value,
            method="rdl-line",
            diagnostics={
                "kappa": kappa,
                "trace_norm_ratio": ratio_i,
                "tau3_phi": tau3_i,
                "raw_value": raw_i,
            },
        )
    return results


def _rank2_bounds(spectrum: np.ndarray, support: np.ndarray) -> list:
    """Three-tangle upper bounds of stacked rank <= 2 three-qubit states,
    given their spectra (K, 2) and orthonormal support rows (K, 2, 8)."""
    coeffs = _quartic_coeffs(support)
    degree = _quartic_degree(coeffs)
    pure = spectrum[:, 1] < RANK_TOL
    results = [None] * len(spectrum)
    for i in np.flatnonzero(pure):
        # coeffs[:, 0] = p(0) = form(e1), the pure state's own quartic.
        results[i] = TangleBoundResult(
            value=float(min(4.0 * abs(coeffs[i, 0]), 1.0)), method="exact-pure"
        )
    for i in np.flatnonzero(~pure & (degree < 0)):
        # The polynomial vanishes identically: the whole span is W-class.
        results[i] = TangleBoundResult(value=0.0, method="simplex-zero")
    mixed = ~pure & (degree >= 0)
    for d in np.unique(degree[mixed]):
        group = np.flatnonzero(mixed & (degree == d))
        for i, res in zip(group, _mixed_bounds(spectrum[group], coeffs[group], int(d))):
            results[i] = res
    return results


def pure_tangles(psi: PureState) -> tuple[dict, dict]:
    """One-tangles by focus and two-tangles by pair of an n-qubit pure state,
    from its amplitude tensor; qubits are numbered 1..n and pairs are
    increasing tuples."""
    amps = psi.amplitudes
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:  # also rejects NaN
        raise ValueError(f"state has squared norm {norm2}, expected 1")
    n = psi.n_qubits
    qubits = tuple(range(1, n + 1))
    pairs = tuple(combinations(qubits, 2))

    # tau1 = 4 det(M M^dag) for the 2 x 2^(n-1) focus-by-rest reshape M.
    m = amps[_unfoldings(n, tuple((f,) for f in qubits))]
    g = m @ m.conj().swapaxes(1, 2)
    det = g[:, 0, 0].real * g[:, 1, 1].real - np.abs(g[:, 0, 1]) ** 2
    tau1 = np.clip(4.0 * det, 0.0, 1.0)

    # Wootters' tau matrix M^T (Syy) M of the 4 x 2^(n-2) pair-by-rest reshape
    # has the spin-flip spectrum lambda_i as its singular values; below four
    # qubits it has fewer than four, and the missing ones are 0.
    m = amps[_unfoldings(n, pairs)]
    lams = np.linalg.svd(m.swapaxes(1, 2) @ _SIGMA_YY @ m, compute_uv=False)
    lams = np.concatenate([lams, np.zeros((len(pairs), max(0, 4 - lams.shape[1])))], axis=1)
    conc = np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])
    tau2 = np.minimum(conc * conc, 1.0)
    return dict(zip(qubits, tau1.tolist())), dict(zip(pairs, tau2.tolist()))


def four_qubit_tangles(psi4: PureState) -> tuple[dict, dict, dict]:
    """Every tangle of a four-qubit pure state, from its amplitude tensor.

    Returns the one-tangles by focus and the two-tangles by pair from
    ``pure_tangles``, and the three-tangle upper bounds (TangleBoundResult)
    by triple, with qubits numbered 1..4 and triples as increasing tuples.
    """
    if psi4.n_qubits != 4:
        raise ValueError(f"expected 4 qubits, got {psi4.n_qubits}")
    tau1, tau2 = pure_tangles(psi4)

    # The 8x2 triple-by-rest reshape U S V^dag gives the rank-2 spectrum S^2
    # and support U of each three-qubit marginal.
    u, s, _ = np.linalg.svd(psi4.amplitudes[_unfoldings(4, _TRIPLES)], full_matrices=False)
    tau3 = _rank2_bounds(s**2, _phase_fix(u.swapaxes(1, 2)))
    return tau1, tau2, dict(zip(_TRIPLES, tau3))


def three_tangle_upper(rho3: DensityMatrix) -> TangleBoundResult:
    """Upper bound on the three-tangle of a rank <= 2 three-qubit state."""
    if rho3.dim != 8:
        raise ValueError(f"expected a three-qubit state, got dim={rho3.dim}")
    dec = rank2_decompose(rho3)
    return _rank2_bounds(np.array([[dec.lam, 1.0 - dec.lam]]), np.stack([dec.e1, dec.e2])[None])[0]
