"""Test-only convex-roof reference for the mixed three-tangle: one linear
program over a sphere mesh.

A pure state of the span of a rank-2 three-qubit state's eigenvectors e1, e2
is a point s of that span's Bloch sphere, and the state itself is the point
r = (0, 0, 2 lam - 1) inside it. Nonnegative weights on sphere points whose
Bloch vectors average to r are an explicit pure-state decomposition, so the
least weighted mean of the root-three-tangle g = sqrt(tau3) over a finite
point set is at least the convex roof of g at r (Röthlisberger, Lehmann and
Loss, PRA 80, 042301, 2009; Uhlmann, Entropy 12, 1799, 2010).

The points are a fixed Fibonacci mesh, its two poles e1 and e2 included, so
the spectral decomposition is always feasible, and the span's four W-class
states from ``reference.wclass_states``, where g vanishes and has its cusps.
scipy's HiGHS solves the 4-row program; its basic points' weights are then
re-solved in double precision, so the value is that of a decomposition that
reproduces r to 1e-12, not one within HiGHS's feasibility tolerance.
"""

import numpy as np
from scipy.optimize import linprog

from reference import tau3_quartic_form, wclass_states

_RESOLVE_TOL = 1e-12


def _fibonacci_mesh(n: int) -> np.ndarray:
    """Coefficient pairs (n, 2) in the basis e1, e2 of n Bloch-sphere points
    on a golden-angle spiral, from the pole e1 (z = 1) to the pole e2."""
    z = np.linspace(1.0, -1.0, n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    return np.stack([np.sqrt((1.0 + z) / 2), np.exp(1j * phi) * np.sqrt((1.0 - z) / 2)], axis=1)


_MESH = _fibonacci_mesh(2000)


def _bloch(amps: np.ndarray) -> np.ndarray:
    """Bloch vectors (k, 3) of unit coefficient pairs (k, 2) in the basis e1, e2."""
    cross = amps[:, 0].conj() * amps[:, 1]
    z = np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, z], axis=1)


def roof_decomposition(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pure-state decomposition of a rank-2 three-qubit density matrix
    (8, 8) of least mean root-three-tangle over the mesh and W points: the
    weights (k,), each >= 0 and summing to 1, the states (k, 8) and their
    root-three-tangles sqrt(4 |form|) (k,)."""
    evals, evecs = np.linalg.eigh(rho)
    p, basis = evals[::-1][:2], evecs[:, ::-1][:, :2].T  # e1, e2 as rows
    r = np.array([0.0, 0.0, (p[0] - p[1]) / (p[0] + p[1]), 1.0])
    wclass = wclass_states(*basis) @ basis.conj().T
    amps = np.concatenate([_MESH, wclass / np.linalg.norm(wclass, axis=1, keepdims=True)])
    states = amps @ basis
    g = np.sqrt(4.0 * np.abs(tau3_quartic_form(states.T)))
    a = np.vstack([_bloch(amps).T, np.ones(len(amps))])  # (4, points)
    lp = linprog(g, A_eq=a, b_eq=r, bounds=(0, None), method="highs")
    assert lp.status == 0, lp.message
    keep = np.flatnonzero(lp.x > 0)  # the basic points
    weights = np.linalg.lstsq(a[:, keep], r, rcond=None)[0]
    keep, weights = keep[weights > 0], weights[weights > 0]
    assert np.max(np.abs(a[:, keep] @ weights - r)) <= _RESOLVE_TOL
    return weights, states[keep], g[keep]


def convex_roof_tau3(rho: np.ndarray) -> float:
    """Squared mean root-three-tangle of ``roof_decomposition``'s
    decomposition of a rank-2 three-qubit density matrix (8, 8): at least
    the convex roof."""
    weights, _, g = roof_decomposition(rho)
    return float((weights @ g) ** 2)
