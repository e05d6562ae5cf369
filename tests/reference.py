"""Test-only references for the package's tangles and its sampler.

Each tangle reference takes one reduced density matrix or one rank-2 support
at a time, by a route independent of the package's amplitude-tensor path:
``partial_trace`` forms the reduced density matrix by tensor contraction,
``one_tangle`` is 4 det of it, ``two_tangle`` is Wootters' formula through
``eigh``, ``rank2_eigh`` takes a rank-2 support from ``eigh`` instead of the
package's closed-form eigendecomposition of each 8x2 reshape's Gram matrix,
``rank2_bound`` bounds that support with the package's bound, and
``wclass_states`` finds the zero-tangle states of a rank-2 support with
``np.roots`` instead of the package's closed-form (Ferrari) quartic solver.
``companion_roots`` is the batched companion-matrix ``eigvals`` route to the
same roots, the baseline the package's solver is held to in accuracy.

The sampler reference is the sequential definition of a sample's random
stream: ``draw_slocc`` draws the normal-form parameters one value at a time,
builds the normal form term by term, and draws the four operators one
``_random_sl2`` call each. The package's stacked sampler must give the same
bits.

Two test-side utilities sit with them: ``local_image``, the normalized image
of one state under local operators (the package's stacked ``_local_images``
on a one-row stack), and ``write_state``, which writes a state file in the
format ``qtangle tangle`` reads.
"""

import json

import numpy as np

from qtangle.qstate import PureState, _local_images
from qtangle.states import (
    _PARAM_NAMES,
    CLASS_ARITY,
    NormalFormParams,
    SloccProvenance,
    _check_class,
)
from qtangle.tangles import TangleBoundResult, _phase_fix, _rank2_bounds, _tau3_quartic_form

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Roots at least this large are W-class states e1/z + e2 next to e2; the
# package drops the matching near-zero leading coefficients to infinity.
_HUGE_ROOT = 1e6
# Largest coefficient of a quartic that vanishes identically; measured on
# the test marginals: vanishing <= 3.1e-16, the others >= 2.7e-6.
_VANISHING = 1e-11


def local_image(psi: PureState, ops) -> PureState:
    """Normalized image ``(A_1 x ... x A_n)|psi>`` of a state under n 2x2
    operators."""
    image = _local_images(psi.amplitudes[None], np.asarray(ops, dtype=complex)[None])[0]
    return PureState.from_amplitudes(image, n_qubits=psi.n_qubits)


def write_state(psi: PureState, path) -> None:
    """Write a state file ``{"n": n, "amplitudes": [[re, im], ...]}``."""
    amps = [[float(a.real), float(a.imag)] for a in psi.amplitudes]
    with open(path, "w") as fh:
        fh.write(json.dumps({"n": psi.n_qubits, "amplitudes": amps}))


def partial_trace(psi: PureState, keep: tuple) -> np.ndarray:
    """Reduced density matrix on the kept qubits (increasing, 1-based), in
    the induced bit ordering, with its roundoff asymmetry scrubbed."""
    n = psi.n_qubits
    traced = [q - 1 for q in range(1, n + 1) if q not in keep]
    t = psi.amplitudes.reshape((2,) * n)
    rho = np.tensordot(t, t.conj(), axes=(traced, traced)).reshape(2 ** len(keep), -1)
    return 0.5 * (rho + rho.conj().T)


def one_tangle(psi: PureState, focus: int) -> float:
    """4 det of the focus-qubit marginal (its linear entropy)."""
    rho = partial_trace(psi, (focus,))
    return float(np.clip(4.0 * np.linalg.det(rho).real, 0.0, 1.0))


def two_tangle(rho: np.ndarray) -> float:
    """Squared concurrence of a two-qubit density matrix (4, 4) via the
    spin-flipped spectrum."""
    # The eigenvalues of rho (Syy rho* Syy) equal the squared singular values
    # of sqrt(rho) Syy sqrt(rho)*, which is the numerically stable route.
    evals, evecs = np.linalg.eigh(rho)
    b = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    lams = np.linalg.svd(b @ _SIGMA_YY @ b.conj(), compute_uv=False)
    c = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    return float(min(c * c, 1.0))


def rank2_eigh(rho: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The spectral form lam |e1><e1| + (1 - lam) |e2><e2| of a rank-2
    density matrix: eigh, eigenvalues in descending order, lam clipped to
    [0.5, 1], and the two leading eigenvectors with their phases fixed."""
    evals, evecs = np.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    lam = float(np.clip(evals[0], 0.5, 1.0))
    return lam, _phase_fix(evecs[:, 0]), _phase_fix(evecs[:, 1])


def rank2_bound(rho: np.ndarray) -> TangleBoundResult:
    """The package's three-tangle bound of a rank-2 three-qubit density
    matrix (8, 8), on the support that ``rank2_eigh`` gives."""
    lam, e1, e2 = rank2_eigh(rho)
    return _rank2_bounds(np.array([[lam, 1.0 - lam]]), np.stack([e1, e2])[None]).result(0)


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


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Sorted roots of stacked polynomials (K, d+1) of one common degree d
    (coefficients low to high, nonzero leading term), as eigenvalues of
    their companion matrices: the eigvals route the package took before its
    closed-form solver."""
    k, d = coeffs.shape[0], coeffs.shape[1] - 1
    if d == 0:
        return np.empty((k, 0), dtype=complex)
    comp = np.zeros((k, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    return np.sort_complex(np.linalg.eigvals(comp))


# -- the sequential sampler ------------------------------------------------------


def _bits(*strings: str) -> list[int]:
    return [int(s, 2) for s in strings]


def _normal_form_pattern(cls: int, pv: tuple) -> np.ndarray:
    amps = np.zeros(16, dtype=complex)

    def put(value: complex, *strings: str) -> None:
        for idx in _bits(*strings):
            amps[idx] += value

    if cls == 1:
        a, b, c, d = pv
        put((a + d) / 2, "0000", "1111")
        put((a - d) / 2, "0011", "1100")
        put((b + c) / 2, "0101", "1010")
        put((b - c) / 2, "0110", "1001")
    elif cls == 2:
        a, b, c = pv
        put((a + b) / 2, "0000", "1111")
        put((a - b) / 2, "0011", "1100")
        put(c, "0101", "1010")
        put(1.0, "0110")
    elif cls == 3:
        a, b = pv
        put(a, "0000", "1111")
        put(b, "0101", "1010")
        put(1.0, "0110", "0011")
    elif cls == 4:
        a, b = pv
        put(a, "0000", "1111")
        put((a + b) / 2, "0101", "1010")
        put((a - b) / 2, "0110", "1001")
        put(1.0j / np.sqrt(2), "0001", "0010", "0111", "1011")
    elif cls == 5:
        (a,) = pv
        put(a, "0000", "0101", "1010", "1111")
        put(1.0j, "0001")
        put(1.0, "0110")
        put(-1.0j, "1011")
    elif cls == 6:
        (a,) = pv
        put(a, "0000", "1111")
        put(1.0, "0011", "0101", "0110")
    elif cls == 7:
        put(1.0, "0000", "0101", "1000", "1110")
    elif cls == 8:
        put(1.0, "0000", "1011", "1101", "1110")
    elif cls == 9:
        put(1.0, "0000", "0111")
    return amps


def normal_form(cls: int, params: NormalFormParams = NormalFormParams()) -> PureState:
    """Normalized normal-form representative of one of the nine families."""
    cls = _check_class(cls)
    amps = _normal_form_pattern(cls, params.as_tuple(CLASS_ARITY[cls]))
    if np.linalg.norm(amps) < 1e-12:
        raise ValueError(f"class-{cls} pattern vanishes for the given parameters")
    return PureState.from_amplitudes(amps, n_qubits=4)


def random_normal_form_params(cls: int, rng: np.random.Generator) -> NormalFormParams:
    """Parameters with Re ~ U[0, 1] and Im ~ U[-1, 1], drawn in a, b, c, d order."""
    cls = _check_class(cls)
    values = {}
    for name in _PARAM_NAMES[: CLASS_ARITY[cls]]:
        values[name] = complex(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
    return NormalFormParams(**values)


def _random_sl2(rng: np.random.Generator, max_tries: int = 100) -> np.ndarray:
    """Standard-complex-Gaussian 2x2 matrix rescaled to determinant 1."""
    for _ in range(max_tries):
        m = rng.normal(0.0, np.sqrt(0.5), (2, 2)) + 1j * rng.normal(0.0, np.sqrt(0.5), (2, 2))
        det = np.linalg.det(m)
        if abs(det) >= 1e-6:
            return m * det ** (-0.5)
    raise RuntimeError(f"rejected {max_tries} singular draws in a row; RNG looks broken")


def draw_slocc(cls: int, seed: int | np.random.SeedSequence) -> tuple[PureState, SloccProvenance]:
    """One sample's own random stream, drawn in a fixed order: the
    normal-form parameters, then the four det-1 local operators. Returns
    the normal form before the operators act, and the provenance."""
    cls = _check_class(cls)
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(int(seed))
    rng = np.random.default_rng(seq)
    params = random_normal_form_params(cls, rng)
    base = normal_form(cls, params)
    ops = tuple(_random_sl2(rng) for _ in range(4))
    prov = SloccProvenance(
        slocc_class=cls,
        seed_key=tuple(int(x) for x in np.atleast_1d(seq.entropy)),
        params=params,
        operators=ops,
    )
    return base, prov


def random_slocc_state(
    cls: int, seed: int | np.random.SeedSequence
) -> tuple[PureState, SloccProvenance]:
    """Random member of a SLOCC class: det-1 local operators on a random
    normal form, fully determined by the seed."""
    base, prov = draw_slocc(cls, seed)
    return local_image(base, prov.operators), prov
