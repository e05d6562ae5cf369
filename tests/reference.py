"""Test-only per-marginal references for the package's tangles.

Each takes one reduced density matrix or one rank-2 support at a time, by a
route independent of the package's amplitude-tensor path: ``one_tangle`` is
4 det of ``partial_trace``, ``two_tangle`` is Wootters' formula through
``eigh``, and ``wclass_states`` finds the zero-tangle states of a rank-2
support with ``np.roots`` instead of companion matrices.
"""

import numpy as np

from qtangle.qstate import DensityMatrix, PureState, partial_trace
from qtangle.tangles import _tau3_quartic_form

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Roots at least this large are W-class states e1/z + e2 next to e2; the
# package drops the matching near-zero leading coefficients to infinity.
_HUGE_ROOT = 1e6
# Largest coefficient of a quartic that vanishes identically; measured on
# the test marginals: vanishing <= 3.1e-16, the others >= 2.7e-6.
_VANISHING = 1e-11


def one_tangle(psi: PureState, focus: int) -> float:
    """4 det of the focus-qubit marginal (its linear entropy)."""
    rho = partial_trace(psi, (focus,))
    return float(np.clip(4.0 * np.linalg.det(rho.entries).real, 0.0, 1.0))


def two_tangle(rho_pair: DensityMatrix) -> float:
    """Squared concurrence of a two-qubit state via the spin-flipped spectrum."""
    if rho_pair.dim != 4:
        raise ValueError(f"two_tangle expects a 4x4 density matrix, got dim={rho_pair.dim}")
    rho = rho_pair.entries
    # The eigenvalues of rho (Syy rho* Syy) equal the squared singular values
    # of sqrt(rho) Syy sqrt(rho)*, which is the numerically stable route.
    evals, evecs = np.linalg.eigh(rho)
    b = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    lams = np.linalg.svd(b @ _SIGMA_YY @ b.conj(), compute_uv=False)
    c = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    return float(min(c * c, 1.0))


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValueError("trace_norm requires a Hermitian matrix")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def wclass_states(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The four W-class states (4, 8) of the span of orthonormal e1, e2.

    They are the zeros of p(z) = form(e1 + z e2), with coefficients
    interpolated from p at 0, +-1, +-i by a Vandermonde solve. Finite roots
    are ordered by ``np.sort_complex``, as in the package; roots of modulus
    >= 1e6 and roots that ``np.roots`` drops (exactly zero leading
    coefficients) come last, as e1/z + e2 and e2. A quartic that vanishes
    identically gives e1, e2 and (e1 +- e2)/sqrt(2).
    """
    nodes = np.array([0.0, 1.0, -1.0, 1.0j, -1.0j])
    values = [_tau3_quartic_form(e1 + z * e2) for z in nodes]
    coeffs = np.linalg.solve(np.vander(nodes, 5, increasing=True), values)
    if np.max(np.abs(coeffs)) < _VANISHING:
        return np.array([e1, e2, (e1 + e2) / np.sqrt(2), (e1 - e2) / np.sqrt(2)])
    roots = np.roots(coeffs[::-1])
    huge = np.abs(roots) >= _HUGE_ROOT
    finite = np.sort_complex(roots[~huge])
    states = [e1 + z * e2 for z in finite] + [e1 / z + e2 for z in roots[huge]]
    states += [e2] * (4 - len(states))
    return np.array([v / np.linalg.norm(v) for v in states])
