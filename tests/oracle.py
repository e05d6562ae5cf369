"""Test-only numerical convex-roof minimizer for the mixed three-tangle.

Independent of the ray-extension bound: it searches directly over length-4
pure-state decompositions of a rank-2 state, parameterized by 4x2 isometries
applied to the weighted eigenvectors. Each restart runs a local descent on
the roof functional and then polishes through a smooth surrogate sharing its
zero set (the root-tangle objective has a kink exactly at its minimum); the
reported value is the functional minimum over every visited candidate.

The objectives are evaluated on stacks of parameter vectors. Each L-BFGS-B
call gets the value and a forward-difference gradient from one stacked
evaluation of the point and its 16 shifted copies, built by the rule scipy
applies when no gradient is given, so the descent path is the same as with
scipy's own finite differences.
"""

import numpy as np
from scipy.optimize import minimize

from reference import rank2_eigh, tau3_quartic_form

# scipy's L-BFGS-B forward differences: an absolute step of 1e-8, replaced by
# sqrt(eps) * sign(x) * max(1, |x|) where x + 1e-8 rounds back to x.
_ABS_STEP = 1e-8
_REL_STEP = np.sqrt(np.finfo(float).eps)
# scipy counts 1 + 16 evaluations for each point whose gradient it
# differences, against its default budget of 15000; here a point is one call.
_MAXFUN = 15000 // 17


def _members(x: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    m = (x[..., :8] + 1j * x[..., 8:]).reshape(*x.shape[:-1], 4, 2)
    q, _ = np.linalg.qr(m)
    return q @ weighted  # rows: unnormalized decomposition members


def _quartic_rows(s: np.ndarray) -> np.ndarray:
    return np.abs(tau3_quartic_form(np.moveaxis(s, -1, 0)))


def _roof_objective(x: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    # sqrt(tau3) is degree-2 homogeneous, so the probability weights are
    # already absorbed by the unnormalized member vectors.
    return np.sum(2.0 * np.sqrt(_quartic_rows(_members(x, weighted))), axis=-1)


def _surrogate(x: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    return np.sum(_quartic_rows(_members(x, weighted)) ** 2, axis=-1)


def _with_gradient(objective):
    """Value and forward-difference gradient of a stacked objective at x."""

    def value_and_grad(x, weighted):
        sign = (x >= 0).astype(float) * 2 - 1
        fallback = _REL_STEP * sign * np.maximum(1.0, np.abs(x))
        h = np.where((x + _ABS_STEP) - x == 0, fallback, _ABS_STEP)
        points = np.tile(x, (x.size + 1, 1))
        idx = np.arange(x.size)
        points[idx + 1, idx] = x + h
        values = objective(points, weighted)
        return values[0], (values[1:] - values[0]) / ((x + h) - x)

    return value_and_grad


_roof_fg = _with_gradient(_roof_objective)
_surrogate_fg = _with_gradient(_surrogate)


def convex_roof_tau3(rho: np.ndarray, restarts: int = 32, seed: int = 0) -> float:
    """Squared infimum of the decomposition-averaged root-three-tangle of a
    rank-2 three-qubit density matrix (8, 8)."""
    lam, e1, e2 = rank2_eigh(rho)
    weighted = np.vstack([np.sqrt(lam) * e1, np.sqrt(1.0 - lam) * e2])  # 2 x 8
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        x0 = rng.normal(size=16)
        res = minimize(
            _roof_fg,
            x0,
            args=(weighted,),
            method="L-BFGS-B",
            jac=True,
            options={"maxfun": _MAXFUN},
        )
        best = min(best, res.fun)
        polished = minimize(
            _surrogate_fg,
            res.x,
            args=(weighted,),
            method="L-BFGS-B",
            jac=True,
            options={"ftol": 1e-18, "gtol": 1e-16, "maxiter": 500, "maxfun": _MAXFUN},
        )
        best = min(best, float(_roof_objective(polished.x, weighted)))
        if best < 5e-4:  # squared value below 2.5e-7: the roof is zero
            break
    return float(best**2)
