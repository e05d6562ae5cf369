import itertools

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from conftest import random_pure_state, random_unitary2
from qtangle import (
    PureState,
    residual_columns,
    tangle_columns,
    tangle_report,
)
from qtangle.harness import (
    _TABLE1_GRID,
    SWEEP_BINDINGS,
    _table1_params,
    sweep_family,
    table1_check,
)
import qtangle.harness as harness
import qtangle.tangles as tangles
from qtangle.monogamy import _padded
from qtangle.states import (
    CLASS_ARITY,
    NormalFormParams,
    draw_samples,
    ghz,
    normal_form,
    random_slocc_state,
    sample_seed,
    w,
)
from qtangle.tangles import (
    METHODS,
    RANK_TOL,
    SUPPORT_TOL,
    TRIPLES,
    _TRIPLE_UNFOLDINGS,
    _augmented,
    _mixed_bounds,
    _phase_fix,
    _plane_bound,
    _quartic_coeffs,
    _quartic_degree,
    _rank2_support,
    _ray_bound,
    _simplex_solve,
    _wclass_bloch,
    _wclass_roots,
)
from reference import (
    companion_roots,
    interpolated_quartic,
    local_image,
    one_tangle,
    partial_trace,
    rank2_bound,
    rank2_eigh,
    tau3_quartic_form,
    three_tangle,
    trace_norm,
    two_tangle,
    wclass_states,
)


def bell_pair():
    return PureState.from_amplitudes([1, 0, 0, 1])


# ---------------------------------------------------------------- one_tangle


def test_one_tangle_examples():
    assert one_tangle(ghz(4), 1) == pytest.approx(1.0, abs=1e-12)
    assert one_tangle(PureState.from_amplitudes(np.eye(16)[0]), 1) == pytest.approx(0.0, abs=1e-12)
    assert one_tangle(w(4), 1) == pytest.approx(0.75, abs=1e-12)


def test_one_tangle_linear_entropy_identity(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 4)
        for focus in range(1, 5):
            rho = partial_trace(psi, (focus,))
            lin = 2.0 * (1.0 - np.trace(rho @ rho).real)
            assert one_tangle(psi, focus) == pytest.approx(lin, abs=1e-10)


# ---------------------------------------------------------------- two_tangle


def test_two_tangle_examples():
    assert two_tangle(partial_trace(bell_pair(), (1, 2))) == pytest.approx(1.0, abs=1e-12)
    product = PureState.from_amplitudes([1, 0, 0, 0])
    assert two_tangle(partial_trace(product, (1, 2))) == pytest.approx(0.0, abs=1e-12)
    assert two_tangle(partial_trace(w(4), (1, 2))) == pytest.approx(0.25, abs=1e-12)


def test_two_tangle_pure_determinant_identity(rng):
    for _ in range(30):
        psi = random_pure_state(rng, 2)
        c = psi.amplitudes
        expected = 4.0 * abs(c[0] * c[3] - c[1] * c[2]) ** 2
        assert two_tangle(partial_trace(psi, (1, 2))) == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------- the pure three-tangle
#
# A three-qubit state's three-tangle is the tau3 of its report: the engine's
# exact-pure bound of triple (1, 2, 3) of the state padded to four qubits.


def tau3(psi: PureState) -> float:
    return tangle_report(psi, 1)["tau3"]


def test_three_tangle_pure_examples():
    assert tau3(ghz(3)) == pytest.approx(1.0, abs=1e-12)
    assert tau3(w(3)) == pytest.approx(0.0, abs=1e-12)
    for p in (0.1, 0.37, 0.5, 0.9):
        amps = np.zeros(8)
        amps[0] = np.sqrt(p)
        amps[7] = np.sqrt(1 - p)
        psi = PureState.from_amplitudes(amps)
        assert tau3(psi) == pytest.approx(4 * p * (1 - p), abs=1e-12)


def test_three_tangle_permutation_invariant(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 3)
        base = tau3(psi)
        t = psi.amplitudes.reshape(2, 2, 2)
        for perm in itertools.permutations(range(3)):
            permuted = PureState.from_amplitudes(np.transpose(t, perm).ravel())
            assert tau3(permuted) == pytest.approx(base, abs=1e-10)


def test_three_tangle_local_unitary_invariant(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 3)
        rotated = local_image(psi, [random_unitary2(rng) for _ in range(3)])
        assert tau3(rotated) == pytest.approx(tau3(psi), abs=1e-9)


def test_three_qubit_tau3_is_the_engine_row():
    # Every focus's report reads the one engine row: the exact-pure bound of
    # triple (1, 2, 3), bit for bit. Measured: within 1.8e-15 of the
    # term-by-term expansion on the first 2,000 states of this stream.
    rng = np.random.default_rng(5)
    for _ in range(200):
        psi = random_pure_state(rng, 3)
        bounds = tangle_columns(_padded(psi)[None]).tau3
        assert METHODS[bounds.method[0, 0]] == "exact-pure"
        row = bounds.value[0, 0]
        for focus in (1, 2, 3):
            got = tangle_report(psi, focus)["tau3"]
            assert np.float64(got).tobytes() == row.tobytes()
        assert abs(row - three_tangle(psi)) <= 1e-14


# The reference expansion's terms: (weight, amplitude indices) of each
# monomial, for the size of its sum.
_FORM_TERMS = (
    (1, (0, 0, 7, 7)), (1, (1, 1, 6, 6)), (1, (2, 2, 5, 5)), (1, (4, 4, 3, 3)),
    (2, (0, 7, 1, 6)), (2, (0, 7, 2, 5)), (2, (0, 7, 4, 3)),
    (2, (1, 6, 2, 5)), (2, (1, 6, 3, 4)), (2, (4, 3, 2, 5)),
    (4, (0, 3, 5, 6)), (4, (7, 4, 2, 1)),
)  # fmt: skip


def test_three_tangle_form_matches_the_term_expansion(rng):
    c = rng.normal(size=(8, 2000)) + 1j * rng.normal(size=(8, 2000))
    c[:, :1000] *= rng.uniform(0.0, 1.0, size=(8, 1000)) ** 8  # amplitudes of mixed sizes
    terms = sum(k * np.prod(np.abs(c[list(idx)]), axis=0) for k, idx in _FORM_TERMS)
    # The form of e1 is the constant term of the quartic of the support (e1, 0).
    support = np.zeros((2000, 2, 8), dtype=complex)
    support[:, 0] = c.T
    error = np.abs(_quartic_coeffs(support)[:, 0] - tau3_quartic_form(c))
    assert np.all(error <= 8.0 * np.finfo(float).eps * terms)  # measured: 4.5 eps on 200,000


def test_quartic_coeffs_match_interpolation(rng):
    m = rng.normal(size=(200, 8, 2)) + 1j * rng.normal(size=(200, 8, 2))
    support = np.linalg.qr(m)[0].swapaxes(-1, -2)  # orthonormal rows (200, 2, 8)
    coeffs = _quartic_coeffs(support)
    want = np.array([interpolated_quartic(e1, e2) for e1, e2 in support])
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(coeffs - want) <= 1e-14 * scale)  # measured: 1.7e-15 on 5,000


def test_quartic_coeffs_exact_on_basis_spans():
    e = np.eye(8)
    # form(|000> + z |111>) = z^2: GHZ-like, degree 2
    coeffs = _quartic_coeffs(np.stack([e[0], e[7]])[None])
    assert coeffs.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0]]
    assert _quartic_degree(coeffs).tolist() == [2]
    # |000> + z |001> is a product state for every z: the form vanishes.
    coeffs = _quartic_coeffs(np.stack([e[0], e[1]])[None])
    assert coeffs.tolist() == [[0.0] * 5]
    assert _quartic_degree(coeffs).tolist() == [-1]


# ------------------------------------------------------- W-class vertices
#
# The package's W-class states of a rank-2 support are Bloch vectors in the
# frame (e1, e2) of its eigenvectors; the reference gives them as 8-vectors.


def _support(rho):
    return rank2_eigh(rho)[1:]


def _package_vertices(e1, e2):
    """The package's W-class Bloch vectors (4, 3) of the span of e1, e2, or
    None where its quartic vanishes identically."""
    coeffs = _quartic_coeffs(np.stack([e1, e2])[None])
    degree = _quartic_degree(coeffs)
    if degree[0] < 0:
        return None
    return _wclass_bloch(_wclass_roots(coeffs, degree), degree)[0]


def _bloch(states, e1, e2):
    """Bloch vectors (K, 3) of support states (K, 8) in the frame of e1, e2."""
    a, b = states @ e1.conj(), states @ e2.conj()
    ab = a.conj() * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=-1)


def _from_bloch(bloch, e1, e2):
    """Support states (K, 8) with Bloch vectors (K, 3) in the frame of e1, e2."""
    half = np.arccos(np.clip(bloch[:, 2], -1.0, 1.0)) / 2.0
    phase = np.exp(1j * np.arctan2(bloch[:, 1], bloch[:, 0]))
    return np.cos(half)[:, None] * e1 + (phase * np.sin(half))[:, None] * e2


def _mixture(states, weights):
    return sum(p * np.outer(v, v.conj()) for p, v in zip(weights, states))


def test_wclass_roots_ghz4_marginal():
    e1, e2 = _support(partial_trace(ghz(4), (1, 2, 3)))
    # two roots at z = 0 (e1, the north pole) and two at infinity (e2)
    expected = [[0.0, 0.0, 1.0]] * 2 + [[0.0, 0.0, -1.0]] * 2
    assert np.allclose(_package_vertices(e1, e2), expected, atol=1e-10)
    expected_pi = np.zeros((8, 8), dtype=complex)
    expected_pi[0, 0] = expected_pi[7, 7] = 0.5
    assert np.allclose(_mixture(wclass_states(e1, e2), [0.25] * 4), expected_pi, atol=1e-10)


def test_wclass_roots_states_have_zero_tangle(rng):
    for _ in range(30):
        psi = random_pure_state(rng, 4)
        e1, e2 = _support(partial_trace(psi, (1, 2, 3)))
        for v in _from_bloch(_package_vertices(e1, e2), e1, e2):
            assert three_tangle(PureState.from_amplitudes(v, n_qubits=3)) < 1e-9


def test_wclass_roots_distinct_root_case(rng):
    # span of GHZ3 and a generic orthogonal direction: quartic with 4 roots
    g = ghz(3).amplitudes
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v -= np.vdot(g, v) * g
    v /= np.linalg.norm(v)
    e1, e2 = _support(_mixture([g, v], [0.6, 0.4]))
    coeffs = _quartic_coeffs(np.stack([e1, e2])[None])
    assert _quartic_degree(coeffs)[0] == 4
    roots = _wclass_roots(coeffs, _quartic_degree(coeffs))[0]
    assert min(abs(a - b) for a, b in itertools.combinations(roots, 2)) > 1e-3
    for v in _from_bloch(_package_vertices(e1, e2), e1, e2):
        assert three_tangle(PureState.from_amplitudes(v, n_qubits=3)) < 1e-9


def test_wclass_roots_degenerate_span():
    # span of |000> and |011>: the tangle polynomial vanishes identically
    rho = np.diag([0.5, 0, 0, 0.5, 0, 0, 0, 0]).astype(complex)
    e1, e2 = _support(rho)
    assert _package_vertices(e1, e2) is None
    res = rank2_bound(rho)
    assert (res["value"], res["method"], res["diagnostics"]) == (0.0, "simplex-zero", {})
    for v in wclass_states(e1, e2):
        assert three_tangle(PureState.from_amplitudes(v, n_qubits=3)) < 1e-12


# ------------------------------------------------ W-class roots at 40 digits
#
# The quartics of the contract's campaign (its first samples of each class,
# tests/contract.py), of every Table 1 normal form and of the five sweeps on
# a coarse grid, with their roots from the package, from companion-matrix
# eigvals and from mpmath at 40 digits.

CONTRACT_SEED = 20260823
# Vieta residual of the package's roots: the coefficients of lead * prod
# (z - z_k) against the quartic's, relative to its largest coefficient.
# Measured on all 10,181 degree-4 quartics of the contract's verify
# (300 samples per class), table1 and sweep outputs: at most 7.9e-15, with
# eigvals at most 8.5e-15; on this set 1.9e-15 and 8.4e-15.
VIETA_TOL = 1e-14
# |bound(package roots) - bound(40-digit roots)|, every other step alike,
# measured over the same outputs: at most 5.6e-10 on the campaign's 9,300
# quartics (eigvals: 2.2e-9), 3.3e-10 on table1, 7.5e-10 on the class-4
# sweep, 6.4e-10 on this set; see _rank2_bounds. Pinned with 2.7x headroom.
ROOT_BOUND_TOL = 2e-9


def _contract_quartics():
    """Spectra (K, 2), quartics (K, 5) and degrees (K,) of the mixed triple
    marginals whose quartic does not vanish."""
    states = [
        random_slocc_state(cls, sample_seed(CONTRACT_SEED, cls, i))[0]
        for cls in range(1, 9)
        for i in range(24)
    ]
    states += _table1_states()
    states += [
        normal_form(cls, SWEEP_BINDINGS[cls](float(a)))
        for cls in SWEEP_BINDINGS
        for a in np.linspace(0.0, 2.0, 21)
    ]
    spectrum, coeffs, degree = _triple_quartics(states)
    keep = (spectrum[:, 1] >= RANK_TOL) & (degree >= 0)
    return spectrum[keep], coeffs[keep], degree[keep]


def _triple_quartics(states):
    """Spectra (K, 2), quartics (K, 5) and degrees (K,) of the triple
    marginals of four-qubit states, four per state in TRIPLES order."""
    spectrum, support = _rank2_support(np.array([psi.amplitudes for psi in states]))
    coeffs = _quartic_coeffs(support).reshape(-1, 5)
    return spectrum.reshape(-1, 2), coeffs, _quartic_degree(coeffs)


def _mp_roots(mpmath, coeffs, degree, start):
    """The finite roots of each quartic to 40 digits, by mpmath's
    Durand-Kerner iteration started at ``start``, sorted, NaN-padded to 4."""
    roots = np.full((len(coeffs), 4), np.nan, dtype=complex)
    with mpmath.workdps(40):
        for i, (c, d) in enumerate(zip(coeffs, degree)):
            if d == 0:
                continue
            found = mpmath.polyroots(
                [mpmath.mpc(complex(x)) for x in c[d::-1]],
                maxsteps=50,
                extraprec=100,
                roots_init=[mpmath.mpc(complex(z)) for z in start[i, :d]],
            )
            roots[i, :d] = np.sort_complex([complex(z) for z in found])
    return roots


def _vieta_residual(mpmath, coeffs, degree, roots):
    """Largest coefficient of coeffs[d] prod (z - z_k) - p(z), expanded at 40
    digits, relative to the largest coefficient of p."""
    out = np.zeros(len(coeffs))
    with mpmath.workdps(40):
        for i, (c, d) in enumerate(zip(coeffs, degree)):
            poly = [mpmath.mpc(complex(c[d]))]  # high to low
            for z in roots[i, :d]:
                poly = [a - complex(z) * b for a, b in zip(poly + [0], [0] + poly)]
            diff = [abs(a - mpmath.mpc(complex(x))) for a, x in zip(poly, c[d::-1])]
            out[i] = float(max(diff)) / np.abs(c).max()
    return out


def _forward_error(roots, ref, degree):
    """Largest |z - z_ref| / max(1, |z_ref|) of each quartic's roots under the
    best matching of the two root sets."""
    out = np.zeros(len(roots))
    for i, d in enumerate(degree):
        scale = np.maximum(1.0, np.abs(ref[i, :d]))
        out[i] = min(
            (np.abs(roots[i, list(p)] - ref[i, :d]) / scale).max(initial=0.0)
            for p in itertools.permutations(range(d))
        )
    return out


@pytest.fixture(scope="module")
def contract_roots():
    mpmath = pytest.importorskip("mpmath")
    spectrum, coeffs, degree = _contract_quartics()
    roots = _wclass_roots(coeffs, degree)
    eig = np.full_like(roots, np.nan)
    for d in np.unique(degree):
        rows = degree == d
        eig[rows, :d] = companion_roots(coeffs[rows, : d + 1])
    return mpmath, spectrum, coeffs, degree, roots, eig, _mp_roots(mpmath, coeffs, degree, eig)


def test_wclass_roots_are_backward_stable(contract_roots):
    mpmath, _, coeffs, degree, roots, eig, _ = contract_roots
    assert {0, 1, 2, 4} <= set(degree.tolist())
    ours = _vieta_residual(mpmath, coeffs, degree, roots)
    theirs = _vieta_residual(mpmath, coeffs, degree, eig)
    assert ours.max() <= VIETA_TOL
    assert ours.max() <= theirs.max()


def test_wclass_roots_are_as_accurate_as_eigvals(contract_roots):
    # Forward error against the 40-digit roots, measured on this set
    # (package vs eigvals): median 4.6e-10 vs 1.8e-9, 99th percentile 6.8e-5
    # vs 1.2e-4, largest 1.2e-4 vs 1.7e-4, sum 0.0041 vs 0.0140. The largest
    # errors are in fourfold clusters, whose single roots any backward-stable
    # solver only finds to about 1e-4.
    _, _, _, degree, roots, eig, ref = contract_roots
    ours, theirs = _forward_error(roots, ref, degree), _forward_error(eig, ref, degree)
    for q in (0.5, 0.9, 0.99, 1.0):
        assert np.quantile(ours, q) <= np.quantile(theirs, q)
    assert ours.sum() <= theirs.sum()


def test_wclass_root_error_budget(contract_roots):
    # The bound from the package's roots against the bound from the 40-digit
    # roots, everything else computed alike: see ROOT_BOUND_TOL.
    _, spectrum, coeffs, degree, roots, _, ref = contract_roots
    bounds = [_mixed_bounds(spectrum, coeffs, _wclass_bloch(r, degree)) for r in (roots, ref)]
    assert (bounds[0].method == bounds[1].method).all()
    assert np.abs(bounds[0].value - bounds[1].value).max() <= ROOT_BOUND_TOL


def test_wclass_roots_edge_cases():
    def roots_of(coeffs):
        coeffs = np.array(coeffs, dtype=complex)[None]
        return _wclass_roots(coeffs, _quartic_degree(coeffs))[0]

    # Degrees 0-3: the finite roots first, then NaN for the roots at infinity.
    assert np.isnan(roots_of([2.0, 0, 0, 0, 0])).all()
    linear = roots_of([3.0, 2.0, 0, 0, 0])
    assert linear[0] == -1.5 and np.isnan(linear[1:]).all()
    for finite in ([0.5j, -2.0], [1.0 + 1.0j, -0.3, 2.0]):
        got = roots_of(np.poly(finite)[::-1].tolist() + [0.0] * (4 - len(finite)))
        assert np.allclose(got[: len(finite)], np.sort_complex(finite), rtol=0, atol=1e-14)
        assert np.isnan(got[len(finite) :]).all()
    # Exact double and fourfold roots.
    assert (roots_of([4.0, -4.0, 1.0, 0, 0])[:2] == 2.0).all()
    assert (roots_of(np.poly([1.0j] * 4)[::-1]) == 1.0j).all()
    # Marginals of the class-3 and class-6 normal forms and of GHZ4 whose
    # quartic is z^2 up to roundoff: a double root at 0 (e1) and one at
    # infinity (e2). GHZ4's four marginals are the simplex mean: simplex-zero
    # with weights 1/4.
    cases = [(normal_form(cls, SWEEP_BINDINGS[cls](0.7)), count) for cls, count in ((3, 2), (6, 3))]
    for psi, count in cases + [(ghz(4), 4)]:
        _, coeffs, degree = _triple_quartics([psi])
        roots = _wclass_roots(coeffs, degree)
        zeros, infinite = (roots[:, :2] == 0.0).all(axis=1), np.isnan(roots[:, 2:]).all(axis=1)
        assert ((degree == 2) & zeros & infinite).sum() == count
    cols = tangle_columns(ghz(4).amplitudes[None])
    assert set(cols.tau3.method.ravel().tolist()) == {METHODS.index("simplex-zero")}
    assert (cols.tau3.weights == 0.25).all()
    # A fourfold cluster of radius 1e-4 about 1 + 2i. Rounding its
    # coefficients moves the single roots by about 1e-4; their mean, -A/4,
    # and the other Vieta functions stay within roundoff.
    z0 = 1.0 + 2.0j
    cluster = z0 + 1e-4 * np.exp(0.5j * np.pi * np.arange(4) + 0.3j)
    coeffs = np.poly(cluster)[::-1]
    got = roots_of(coeffs)
    assert np.abs(got - z0).max() <= 1e-3
    assert abs(got.mean() - cluster.mean()) <= 1e-15
    expanded = np.poly(got)[::-1]
    assert np.abs(expanded - coeffs).max() <= VIETA_TOL * np.abs(coeffs).max()


# ------------------------------------------------------ W-simplex membership


def _assert_simplex_mean(res, rho):
    """res is the simplex-zero bound of the simplex mean: weights 1/4 on the
    package's W-class vertices of rho's support, which rebuild rho's Bloch
    vector r = (0, 0, p1 - p2)."""
    assert (res["value"], res["method"]) == (0.0, "simplex-zero")
    assert res["diagnostics"]["weights"] == [0.25] * 4
    lam, e1, e2 = rank2_eigh(rho)
    rebuilt = np.array(res["diagnostics"]["weights"]) @ _package_vertices(e1, e2)
    assert np.abs(rebuilt - [0.0, 0.0, 2.0 * lam - 1.0]).max() < SUPPORT_TOL


def test_simplex_member_pi_itself(rng):
    for _ in range(10):
        psi = random_pure_state(rng, 4)
        pi = _mixture(wclass_states(*_support(partial_trace(psi, (1, 2, 3)))), [0.25] * 4)
        rho = 0.5 * (pi + pi.conj().T)
        _assert_simplex_mean(rank2_bound(rho), rho)


def test_simplex_member_ghz4_marginal():
    bounds = tangle_columns(ghz(4).amplitudes[None]).tau3
    for t, triple in enumerate(TRIPLES):
        _assert_simplex_mean(bounds.result((0, t)), partial_trace(ghz(4), triple))


def test_simplex_member_rejects_ghz3(rng):
    # a state near GHZ3, whose three-tangle is 1, is outside the zero-tangle
    # simplex of its support
    e1 = ghz(3).amplitudes
    for _ in range(10):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v -= np.vdot(e1, v) * e1
        v /= np.linalg.norm(v)
        rho = 0.95 * np.outer(e1, e1.conj()) + 0.05 * np.outer(v, v.conj())
        res = rank2_bound(rho)
        assert res["method"] == "rdl-line" and res["value"] > 0.5


# Membership against an independent reference: a linear program for the
# max-norm distance from a target to the convex hull of given columns,
# min t over x >= 0, sum x = 1, |A x - b| <= t. It is 0 exactly when some
# x >= 0 solves A x = b with sum x = 1.


def _lp_distance(columns, target):
    m, k = columns.shape
    one = np.ones((m, 1))
    res = linprog(
        np.append(np.zeros(k), 1.0),
        A_ub=np.block([[columns, -one], [-columns, -one]]),
        b_ub=np.concatenate([target, -target]),
        A_eq=np.append(np.ones(k), 0.0)[None],
        b_eq=[1.0],
        bounds=(0, None),
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return res.fun


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _check_against_lp(w, points, expected):
    """_simplex_solve and the LP both give the constructed answer on points
    that lie at least 1e-6 inside or outside conv(w)."""
    member, weights = _simplex_solve(np.repeat(w[None], len(points), axis=0), points)
    assert list(member) == list(expected)
    for r, m, wts in zip(points, member, weights):
        d = _lp_distance(w.T, r)
        assert d < 1e-9 if m else d >= 1e-6
        if m:
            assert wts.min() >= 0.0 and abs(wts.sum() - 1.0) < SUPPORT_TOL
            assert np.linalg.norm(wts @ w - r) < SUPPORT_TOL


def _pushed_off(rng, face, normal, deltas):
    """Points of a face's relative interior moved by each delta along normal."""
    base = rng.dirichlet(np.ones(len(face)) * 5.0) @ face
    return np.array([base + dl * normal for dl in deltas])


def _outward(direction, on, inner):
    """Unit normal along direction at the point on, pointing away from inner."""
    n = _unit(direction)
    return n if n @ (on - inner) > 0 else -n


_DELTAS = (-1e-2, -1e-4, -2e-6, 2e-6, 1e-4, 1e-2)  # < 0 inward, > 0 outward


def _random_simplex_cases(rng):
    """Random simplices (4, 3) with points (K, 3) at least 1e-6 inside or
    outside them, pushed off each face, and whether each point is inside."""
    for _ in range(15):
        w = _unit(rng.normal(size=(4, 3)))
        faces = [np.delete(w, k, axis=0) for k in range(4)]
        normals = [_outward(np.cross(f[1] - f[0], f[2] - f[0]), f[0], w.mean(axis=0))
                   for f in faces]
        for face, normal in zip(faces, normals):
            points = _pushed_off(rng, face, normal, _DELTAS)
            # Keep the points whose signed distances to the face planes put
            # them at least 1e-6 inside or outside the tetrahedron.
            margin = np.min([(f[0] - points) @ n for f, n in zip(faces, normals)], axis=0)
            keep = np.abs(margin) >= 1e-6
            yield w, points[keep], margin[keep] > 0


def test_simplex_solve_matches_lp_on_random_simplices(rng):
    inside = outside = 0
    for w, points, expected in _random_simplex_cases(rng):
        _check_against_lp(w, points, expected)
        inside += np.sum(expected)
        outside += np.sum(~expected)
    assert inside >= 100 and outside >= 100


def _degenerate_hull_cases(rng):
    """Simplices (4, 3) whose hull is a triangle, a segment or a planar
    quadrilateral, with points (K, 3) in it or just off it, and whether each
    point is in it."""
    for _ in range(10):
        v = _unit(rng.normal(size=(3, 3)))
        # A repeated root: conv is the triangle v0 v1 v2.
        tri = v[[0, 1, 2, 2]]
        off_plane = _unit(np.cross(v[1] - v[0], v[2] - v[0]))
        pts = [rng.dirichlet(np.ones(3) * 5.0, size=4) @ v,
               _pushed_off(rng, v, off_plane, (2e-6, -1e-3)),
               _pushed_off(rng, v[:2], _outward(np.cross(off_plane, v[1] - v[0]), v[0], v[2]),
                           (2e-6, 1e-2))]
        yield tri, np.concatenate(pts), [True] * 4 + [False] * 4
        # Two repeated roots: conv is the segment v0 v1.
        seg = v[[0, 0, 1, 1]]
        across = _unit(np.cross(v[1] - v[0], rng.normal(size=3)))
        pts = [rng.dirichlet(np.ones(2) * 5.0, size=3) @ v[:2],
               _pushed_off(rng, v[:2], across, (2e-6, -1e-3))]
        yield seg, np.concatenate(pts), [True] * 3 + [False] * 2
        # Four coplanar vertices on one latitude circle: conv is a quadrilateral.
        z, phis = rng.uniform(-0.9, 0.9), np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        rho_z = np.sqrt(1.0 - z * z)
        circle = np.stack([rho_z * np.cos(phis), rho_z * np.sin(phis), np.full(4, z)], axis=1)
        pole = np.array([0.0, 0.0, 1.0])
        pts = [rng.dirichlet(np.ones(4) * 5.0, size=4) @ circle,
               _pushed_off(rng, circle, pole, (2e-6, -1e-4))]
        for k in range(4):  # each edge, pushed outward in the plane
            edge = circle[[k, (k + 1) % 4]]
            normal = _outward(np.cross(pole, edge[1] - edge[0]), edge[0], circle.mean(axis=0))
            pts.append(_pushed_off(rng, edge, normal, (2e-6,)))
        pts = np.concatenate(pts)
        yield circle, pts, [True] * 4 + [False] * (len(pts) - 4)


def test_simplex_solve_matches_lp_on_degenerate_hulls(rng):
    for w, points, expected in _degenerate_hull_cases(rng):
        _check_against_lp(w, points, expected)


def _marginals(rng):
    """Every mixed triple marginal, with its spectral form lam, e1, e2 from
    ``rank2_eigh``, of the sweep and Table 1 normal forms, GHZ4, W4 and 60
    random states."""
    states = [
        normal_form(cls, SWEEP_BINDINGS[cls](float(a)))
        for cls in SWEEP_BINDINGS
        for a in np.linspace(0.05, 1.95, 20)
    ]
    for cls in range(1, 10):
        for t in [None] if CLASS_ARITY[cls] == 0 else np.linspace(0.15, 1.95, 10):
            params = NormalFormParams() if t is None else _table1_params(cls, t)
            states.append(normal_form(cls, params))
    states += [ghz(4), w(4)] + [random_pure_state(rng, 4) for _ in range(60)]
    for psi in states:
        for triple in itertools.combinations(range(1, 5), 3):
            rho = partial_trace(psi, triple)
            lam, e1, e2 = rank2_eigh(rho)
            # A pure marginal's 1 - lam is eigh roundoff (measured: <= 2.2e-16).
            if 1.0 - lam >= 1e-8:
                yield rho, lam, e1, e2


def test_simplex_member_matches_lp_on_normal_form_marginals(rng):
    # Normal-form marginals are where repeated roots make the system rank
    # deficient. The package's decision (a zero bound by simplex-zero) is
    # checked on the 8x8 matrices against an LP: rho
    # against the projectors of the reference W-class states, real and
    # imaginary parts. Their order is the package's on the same support, so
    # its weights rebuild rho.
    counts = {(full, m): 0 for full in (True, False) for m in (True, False)}
    for rho, _, e1, e2 in _marginals(rng):
        res = rank2_bound(rho)
        member = res["method"] == "simplex-zero"
        states = wclass_states(e1, e2)
        proj = np.array([np.outer(v, v.conj()).ravel() for v in states]).T
        target = rho.ravel()
        columns = np.concatenate([proj.real, proj.imag])
        d = _lp_distance(columns, np.concatenate([target.real, target.imag]))
        assert d < 1e-9 or d >= 1e-6  # the tolerance cannot decide the case
        assert member == (d < 1e-9)
        if "weights" in res["diagnostics"]:
            weights = np.array(res["diagnostics"]["weights"])
            assert weights.min() >= 0.0
            assert np.max(np.abs(proj @ weights - target)) < SUPPORT_TOL
        counts[(np.linalg.matrix_rank(columns) == 4, member)] += 1
    assert counts[(False, True)] >= 100 and counts[(False, False)] >= 100
    assert counts[(True, True)] + counts[(True, False)] >= 10


# The ray and face-plane certificates that rule points out before NNLS, on
# the same three sets: their bounds are below the NNLS residual, and
# _simplex_solve gives the memberships of one NNLS fit per point. scipy's
# nnls is the reference for the package's batched fit, _nnls.


def _certificate_cases(rng):
    """Stacks of simplices (K, 4, 3) and points (K, 3): the random and the
    degenerate simplices above, and the W-simplex of every mixed normal-form
    marginal with its state (0, 0, p1 - p2)."""
    for w, points, _ in itertools.chain(_random_simplex_cases(rng), _degenerate_hull_cases(rng)):
        yield np.repeat(w[None], len(points), axis=0), points
    ws, rs = [], []
    for _, lam, e1, e2 in _marginals(rng):
        vertices = _package_vertices(e1, e2)
        if vertices is not None:
            ws.append(vertices)
            rs.append([0.0, 0.0, 2.0 * lam - 1.0])
    yield np.array(ws), np.array(rs)


def _candidates(monkeypatch, run, *args):
    """The simplices (K, 4, 3) and points (K, 3) that ``run(*args)`` hands to
    _simplex_solve, and the number of them that _simplex_solve hands on to
    the batched NNLS fit."""
    seen = {"w": [], "r": [], "fitted": 0}
    solve, fit = tangles._simplex_solve, tangles._nnls

    def recorded_solve(w, r):
        seen["w"].append(w)
        seen["r"].append(r)
        return solve(w, r)

    def counted_fit(a, b):
        seen["fitted"] += len(a)
        return fit(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(tangles, "_simplex_solve", recorded_solve)
        patch.setattr(tangles, "_nnls", counted_fit)
        run(*args)
    return np.concatenate(seen["w"]), np.concatenate(seen["r"]), seen["fitted"]


def _campaign_candidates(monkeypatch):
    """The candidates (``_candidates``) of the seed-20260823 campaign at
    300/class."""
    amps = np.concatenate([
        draw_samples(cls, 20260823, range(300))[0]
        for cls in range(1, 9)
    ])
    return _candidates(monkeypatch, tangle_columns, amps)


# The grid of `sweep --a-min 0 --a-max 2 --step 0.01`.
SWEEP_GRID = [k / 100 for k in range(201)]


def _assert_decomposes(w, r, weights):
    """Each row of weights (K, 4) is a convex decomposition of its point r
    (K, 3) over its vertices w (K, 4, 3), within SUPPORT_TOL."""
    assert weights.min() >= 0.0
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) < SUPPORT_TOL)
    assert np.all(np.linalg.norm(np.einsum("kj,kji->ki", weights, w) - r, axis=1) < SUPPORT_TOL)


def test_plane_bound_is_below_the_nnls_residual(rng):
    decided, members = {_ray_bound: 0, _plane_bound: 0}, 0
    for w, r in _certificate_cases(rng):
        a, b = _augmented(w, r)
        resid = np.array([nnls(a_i, b_i)[1] for a_i, b_i in zip(a, b)])
        for certificate in decided:
            bound = certificate(a, b)
            out = bound > SUPPORT_TOL
            assert np.all(resid[out] >= bound[out] - 1e-15)
            decided[certificate] += np.sum(out)
        member, weights = _simplex_solve(w, r)
        assert member.tolist() == (resid < SUPPORT_TOL).tolist()
        _assert_decomposes(w[member], r[member], weights[member])
        members += np.sum(member)
    # measured: of 808 non-members the face planes rule out 522, the ray 323
    # and the two together 680; 593 members
    assert decided[_plane_bound] >= 500 and decided[_ray_bound] >= 300 and members >= 500


def test_certificates_rule_out_only_non_members(rng, monkeypatch):
    # _simplex_solve against one _nnls fit of every candidate: the same
    # members, with the same weights to the bit.
    cases = [*_certificate_cases(rng), _candidates(monkeypatch, table1_check)[:2]]
    cases += [_candidates(monkeypatch, sweep_family, cls, SWEEP_GRID)[:2] for cls in (3, 4, 5, 6)]
    for w, r in cases:
        member, weights = _simplex_solve(w, r)
        all_weights, resid = tangles._nnls(*_augmented(w, r))
        assert member.tolist() == (resid < SUPPORT_TOL).tolist()
        assert _bits(weights[member]) == _bits(all_weights[member])


# Candidates that the ray and face-plane certificates leave to the NNLS fit,
# measured (with the face planes alone): table1 75 of 187 (147), the sweeps
# of classes 3-6 over 0..2 step 0.01 188 of 400 (400), 0 of 800 (10), 320 of
# 802 (802) and 642 of 800 (800). Pinned with about 15% headroom.
@pytest.mark.parametrize(
    "run, args, candidates, most",
    [
        (table1_check, (), 187, 86),
        (sweep_family, (3, SWEEP_GRID), 400, 216),
        (sweep_family, (4, SWEEP_GRID), 800, 5),
        (sweep_family, (5, SWEEP_GRID), 802, 368),
        (sweep_family, (6, SWEEP_GRID), 800, 738),
    ],
)
def test_certificates_leave_few_normal_form_fits(monkeypatch, run, args, candidates, most):
    w, _, fitted = _candidates(monkeypatch, run, *args)
    assert len(w) == candidates
    assert fitted <= most


def test_plane_bound_decides_almost_every_campaign_candidate(monkeypatch):
    w, _, fitted = _campaign_candidates(monkeypatch)
    assert len(w) >= 9000
    assert fitted <= 0.02 * len(w)


def test_nnls_matches_scipy(rng, monkeypatch):
    # Every point, also those the face planes rule out, so that the fit
    # meets the far non-members and the near-degenerate simplices of the
    # campaign (a tenth of its W quartics have two roots within 6e-8).
    counts = {"members": 0, "unique": 0, "non-members": 0}
    for w, r in [*_certificate_cases(rng), _campaign_candidates(monkeypatch)[:2]]:
        a, b = _augmented(w, r)
        weights, resid = tangles._nnls(a, b)
        fits = [nnls(a_i, b_i) for a_i, b_i in zip(a, b)]
        want_weights = np.array([x for x, _ in fits])
        want_resid = np.array([res for _, res in fits])
        member = resid < SUPPORT_TOL
        assert member.tolist() == (want_resid < SUPPORT_TOL).tolist()
        assert np.all(np.abs(resid[~member] - want_resid[~member]) <= 1e-12)
        _assert_decomposes(w[member], r[member], weights[member])
        # A member whose system has one solution has scipy's weights.
        unique = member & (np.linalg.cond(a) < 1e8)
        assert np.all(np.abs(weights[unique] - want_weights[unique]) <= 1e-12)
        counts["members"] += np.sum(member)
        counts["unique"] += np.sum(unique)
        counts["non-members"] += np.sum(~member)
    # measured: 667 members (352 with one solution), 10,034 non-members
    assert counts["members"] >= 600 and counts["unique"] >= 300
    assert counts["non-members"] >= 9000


# The package's W-class vertices against the reference's, as Bloch vectors
# in the support frame. Roundoff of about 1e-16 in the quartic coefficients
# moves a root of multiplicity m by about 1e-16^(1/m): the fourfold roots of
# some normal forms (finite, or at infinity for a constant quartic) are only
# determined to about 1e-4. Measured on these marginals: sets within 2.8e-4
# (simple and double roots within 3e-8), means within 3.9e-8.
VERTEX_TOL = 1e-3
MEAN_TOL = 1e-7


def test_wclass_vertices_match_reference(rng):
    compared = 0
    for _, _, e1, e2 in _marginals(rng):
        w = _package_vertices(e1, e2)
        if w is None:  # covered by the membership test: a zero bound
            continue
        ref = _bloch(wclass_states(e1, e2), e1, e2)
        gap = min(
            np.max(np.linalg.norm(w[list(p)] - ref, axis=1))
            for p in itertools.permutations(range(4))
        )
        assert gap <= VERTEX_TOL
        assert np.linalg.norm(w.mean(axis=0) - ref.mean(axis=0)) <= MEAN_TOL
        compared += 1
    assert compared >= 800


# ------------------------------------------------------ the three-tangle bound
#
# The engine bounds the triple marginals of four-qubit states; a hand-built
# rank-2 three-qubit state is bounded by rank2_bound on its eigh support.


def _triple_bound(amps, t):
    """The engine's bound of triple TRIPLES[t] of one four-qubit state."""
    return tangle_columns(np.asarray(amps)[None]).tau3.result((0, t))


def test_upper_exact_pure():
    res = _triple_bound(np.kron(ghz(3).amplitudes, [1.0, 0.0]), 0)  # GHZ3 on (1, 2, 3)
    assert res["method"] == "exact-pure"
    assert res["value"] == pytest.approx(1.0, abs=1e-10)


def test_upper_pi_coincidence():
    res = _triple_bound(ghz(4).amplitudes, 0)
    _assert_simplex_mean(res, partial_trace(ghz(4), TRIPLES[0]))


def test_upper_simplex_zero_for_constructed_mixtures(rng):
    hits = 0
    for _ in range(10):
        psi = random_pure_state(rng, 4)
        rho = partial_trace(psi, (1, 2, 3))
        mix = _mixture(wclass_states(*_support(rho)), rng.dirichlet(np.ones(4)))
        res = rank2_bound(0.5 * (mix + mix.conj().T))
        assert res["value"] == 0.0
        if res["method"] == "simplex-zero":
            hits += 1
    assert hits >= 8


def test_upper_value_range_and_rank_guard(rng):
    amps = np.array([random_pure_state(rng, 4).amplitudes for _ in range(30)])
    bounds = tangle_columns(amps).tau3
    for i in range(30):
        res = bounds.result((i, 3))  # triple (2, 3, 4)
        assert 0.0 <= res["value"] <= 1.0
        if res["method"] == "rdl-line":
            assert res["diagnostics"]["kappa"] > 0
    # A triple whose second squared singular value is below RANK_TOL is
    # bounded as the pure state it is within that tolerance.
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    for eps, pure in ((0.5 * RANK_TOL, True), (2.0 * RANK_TOL, False)):
        amps = np.kron(np.sqrt(1.0 - eps) * ghz(3).amplitudes, [1.0, 0.0])
        amps += np.kron(np.sqrt(eps) * v, [0.0, 1.0])
        assert (_triple_bound(amps, 0)["method"] == "exact-pure") == pure


def test_exact_pure_only_for_a_pure_marginal():
    # verify --samples 4000 --seed 20260823: the mixed marginal of least p2
    # (class 6, sample 2799, triple (2, 3, 4)) is bounded on the ray, which
    # meets a pure state's own three-tangle only at p2 = 0; the exactly pure
    # class-9 triple (2, 3, 4) marginals, p2 around 1e-32 of roundoff, stay
    # exact-pure.
    amps = draw_samples(6, 20260823, [2799])[0]
    assert _rank2_support(amps)[0][0, 3, 1] == pytest.approx(4.69e-10, rel=1e-3)
    res = tangle_columns(amps).tau3.result((0, 3))
    assert res["method"] == "rdl-line"
    assert res["value"] == pytest.approx(6.246444197002848e-05, rel=1e-12, abs=0.0)
    amps = draw_samples(9, 20260823, range(20))[0]
    p2 = _rank2_support(amps)[0][:, 3, 1]
    assert (0.0 < p2).all() and (p2 < 1e-30).all()
    assert (tangle_columns(amps).tau3.method[:, 3] == METHODS.index("exact-pure")).all()


def test_rdl_line_geometry_matches_8x8_matrices(rng):
    # The diagnostics of a ray bound, rebuilt from 8x8 matrices without the
    # support frame: pi is the W-mixture, rho + t (rho - pi) is the pure
    # surface state, and the bound rescales that state's exact three-tangle.
    checked = 0
    states = [random_pure_state(rng, 4) for _ in range(40)]
    bounds = tangle_columns(np.array([psi.amplitudes for psi in states])).tau3
    for i, psi in enumerate(states):
        for k, triple in enumerate(TRIPLES):
            res = bounds.result((i, k))
            if res["method"] != "rdl-line":
                continue
            rho = partial_trace(psi, triple)
            diag = res["diagnostics"]
            pi = _mixture(wclass_states(*_support(rho)), [0.25] * 4)
            t = diag["kappa"] / trace_norm(rho - pi)
            assert diag["trace_norm_ratio"] == pytest.approx(1.0 / (1.0 + t) ** 2, rel=1e-11)
            evals, evecs = np.linalg.eigh((1.0 + t) * rho - t * pi)
            assert evals[-1] == pytest.approx(1.0, abs=1e-8)
            assert np.max(np.abs(evals[:-1])) < 1e-8
            surface = PureState.from_amplitudes(evecs[:, -1], n_qubits=3)
            expected = diag["trace_norm_ratio"] * three_tangle(surface)
            assert diag["raw_value"] == pytest.approx(expected, abs=1e-11)
            checked += 1
    assert checked >= 100


def test_four_qubit_tangles_rejects_nan_state():
    with pytest.raises(ValueError, match="norm"):
        tangle_columns(np.full((1, 16), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        tangle_report(PureState(n_qubits=3, amplitudes=np.full(8, np.nan, dtype=complex)), 1)


def _pair_terms(report: dict) -> dict:
    """A ``tangle_report``'s two-tangles by partner: two qubits print one."""
    return report["tau2_terms"] if "tau2_terms" in report else {3 - report["focus"]: report["tau2"]}


def test_tangle_report_matches_per_marginal_reference(rng):
    for n in range(2, 5):
        for _ in range(3):
            psi = random_pure_state(rng, n)
            for focus in range(1, n + 1):
                report = tangle_report(psi, focus)
                terms = _pair_terms(report)
                assert list(terms) == [q for q in range(1, n + 1) if q != focus]
                assert abs(report["tau1"] - one_tangle(psi, focus)) <= 1e-12
                for j, value in terms.items():
                    pair = tuple(sorted((focus, j)))
                    assert abs(value - two_tangle(partial_trace(psi, pair))) <= 1e-12


def _one_tangles_40_digits(mpmath, amps):
    """4 det rho_f (S, 4) by focus of amplitude vectors (S, 16), taken as
    exact numbers: rho_f = M M^dag of the 2x8 focus-by-rest reshape M, its
    determinant at 40 digits."""
    out = np.zeros((len(amps), 4))
    with mpmath.workdps(40):
        for s, v in enumerate(amps):
            t = v.reshape(2, 2, 2, 2)
            for f in range(4):
                rows = np.moveaxis(t, f, 0).reshape(2, 8)
                m = [[mpmath.mpc(complex(z)) for z in row] for row in rows]
                g = [[mpmath.fsum(a * mpmath.conj(b) for a, b in zip(r, c)) for c in m] for r in m]
                out[s, f] = float(4 * mpmath.re(g[0][0] * g[1][1] - g[0][1] * g[1][0]))
    return out


def test_one_tangles_keep_relative_accuracy_near_product_states(rng):
    # Product states perturbed by eps: tau1 is of order eps^2, and a Gram
    # determinant g00 g11 - |g01|^2 cancels to about 1e-16 absolute. The
    # one-tangle is 4 p1 p2 of the triple that leaves the focus out, with
    # det G a sum of squared 2x2 minors, so its relative error stays small:
    # at most 1.2e-10 on these states, against 2.1e-3 from the focus Gram.
    mpmath = pytest.importorskip("mpmath")
    for eps in (1e-4, 1e-6, 1e-7):
        amps = []
        for _ in range(8):
            qubits = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            v = qubits[0]
            for q in qubits[1:]:
                v = np.kron(v, q)
            v = v / np.linalg.norm(v) + eps * (rng.normal(size=16) + 1j * rng.normal(size=16))
            amps.append(v / np.linalg.norm(v))
        amps = np.array(amps)
        want = _one_tangles_40_digits(mpmath, amps)
        got = tangle_columns(amps).tau1
        assert np.all(np.abs(got - want) <= 1e-9 * want), eps


def test_padded_spectators_carry_no_tangle(rng):
    # A two- or three-qubit state enters the four-qubit layer as
    # psi x |0>^(4-n): each spectator's one-tangle and every pair tangle that
    # touches a spectator are exactly 0, and tangle_report reads the others.
    for n in (2, 3):
        for psi in (ghz(n), w(n), random_pure_state(rng, n), random_pure_state(rng, n)):
            amps = _padded(psi)
            assert np.array_equal(amps.reshape(2**n, -1)[:, 0], psi.amplitudes)
            assert not amps.reshape(2**n, -1)[:, 1:].any()
            cols = tangle_columns(amps[None])
            tau1, tau2 = cols.tau1, cols.tau2
            assert np.all(tau1[0, n:] == 0.0)
            spectator = [i for i, pair in enumerate(tangles.PAIRS) if pair[1] > n]
            assert np.all(tau2[0, spectator] == 0.0)
            for focus in range(1, n + 1):
                report = tangle_report(psi, focus)
                assert report["tau1"] == tau1[0, focus - 1]
                terms = _pair_terms(report)
                columns = {j: tangles.PAIRS.index(tuple(sorted((focus, j)))) for j in terms}
                assert terms == {j: tau2[0, p] for j, p in columns.items()}


def test_tangle_report_examples():
    for focus in (1, 2):
        report = tangle_report(bell_pair(), focus)
        assert (report["tau1"], report["tau2"]) == pytest.approx((1.0, 1.0), abs=1e-12)
    for focus in (1, 2, 3):
        report = tangle_report(w(3), focus)
        assert report["tau1"] == pytest.approx(8 / 9, abs=1e-12)
        assert all(v == pytest.approx(4 / 9, abs=1e-12) for v in report["tau2_terms"].values())


def test_tangles_invariant_under_local_unitaries(rng):
    # downstream invariance check shared with the qstate module contract
    for _ in range(5):
        psi = random_pure_state(rng, 4)
        rotated = local_image(psi, [random_unitary2(rng) for _ in range(4)])
        cols = tangle_columns(np.stack([psi.amplitudes, rotated.amplitudes]))
        for before, after in (cols.tau1, cols.tau2):
            assert after == pytest.approx(before, abs=1e-9)
    # The three-tangle bounds of sampled states, 8 per class: under local
    # unitaries they moved by at most 1.0e-9 on this set, and no method
    # changed. The tolerance keeps 4x of headroom.
    seeds = [(c, sample_seed(20260823, c, i)) for c in range(1, 9) for i in range(8)]
    states = [random_slocc_state(c, seed)[0] for c, seed in seeds]
    rotated = [local_image(p, [random_unitary2(rng) for _ in range(4)]) for p in states]
    before, after = (tangle_columns(np.array([p.amplitudes for p in s])).tau3 for s in (states, rotated))
    assert np.array_equal(after.method, before.method)
    assert np.abs(after.value - before.value).max() < 4e-9


# ------------------------------------------------------------- column engine


def _table1_states():
    """The default normal forms of ``table1_check``, class by class."""
    return [
        normal_form(cls, _table1_params(cls, t))
        for cls in range(1, 10)
        for t in ([None] if CLASS_ARITY[cls] == 0 else _TABLE1_GRID)
    ]


def _engine_states(rng):
    """Amplitude stack whose triple marginals take every path of the bound:
    60 sampler states, GHZ4, W4, every sweep and Table 1 normal form, and
    states whose (1,2,3) support has a W-class second eigenvector (a cubic)."""
    states = [random_slocc_state(1 + i % 8, sample_seed(60, 1 + i % 8, i))[0] for i in range(60)]
    states += [ghz(4), w(4)]
    states += [
        normal_form(cls, SWEEP_BINDINGS[cls](float(a)))
        for cls in SWEEP_BINDINGS
        for a in np.linspace(0.0, 2.0, 41)
    ]
    states += _table1_states()
    w3 = w(3).amplitudes
    for _ in range(3):
        e1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        e1 -= np.vdot(w3, e1) * w3
        e1 /= np.linalg.norm(e1)
        amps = np.kron(np.sqrt(0.7) * e1, [1, 0]) + np.kron(np.sqrt(0.3) * w3, [0, 1])
        states.append(PureState.from_amplitudes(amps))
    return np.array([psi.amplitudes for psi in states])


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_tangle_columns_do_not_depend_on_the_stack(rng):
    amps = _engine_states(rng)
    cols = tangle_columns(amps)
    for i in range(len(amps)):
        one = tangle_columns(amps[i : i + 1])
        for got, want in zip(
            (cols.tau1, cols.tau2, *cols.tau3), (one.tau1, one.tau2, *one.tau3)
        ):
            assert _bits(got[i]) == _bits(want[0]), i
    # The stack covers every method and every path through the quartic.
    assert set(cols.tau3.method.ravel().tolist()) == set(range(len(METHODS)))
    u, s, _ = np.linalg.svd(amps[:, _TRIPLE_UNFOLDINGS], full_matrices=False)
    degree = _quartic_degree(_quartic_coeffs(_phase_fix(u.swapaxes(-1, -2))).reshape(-1, 5))
    mixed = (s**2)[..., 1].ravel() >= 1e-8
    assert set(degree[mixed].tolist()) == {-1, 0, 1, 2, 3, 4}
    assert not mixed.all()


def test_rank2_bounds_fit_all_quartic_degrees_at_once(monkeypatch):
    rank2, solve, fit = tangles._rank2_bounds, tangles._simplex_solve, tangles._nnls
    seen, calls = [], {"solve": 0, "fit": 0}

    def recorded(spectrum, support):
        seen.append((spectrum.reshape(-1, 2), support.reshape(-1, 2, 8)))
        return rank2(spectrum, support)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(tangles, "_rank2_bounds", recorded)
    monkeypatch.setattr(tangles, "_simplex_solve", counted("solve", solve))
    monkeypatch.setattr(tangles, "_nnls", counted("fit", fit))
    amps = np.array([psi.amplitudes for psi in _table1_states()])
    bounds = tangles._rank2_bounds(*_rank2_support(amps))
    assert len(seen) == 1 and calls["solve"] == 1 and calls["fit"] <= 1
    (spectrum, support), = seen
    degree = _quartic_degree(_quartic_coeffs(support))
    assert {0, 1, 2, 4} <= set(degree[spectrum[:, 1] >= RANK_TOL].tolist())
    # The same columns as one call per degree, as the roots are found.
    flat = [c.reshape(len(degree), *c.shape[2:]) for c in bounds]
    for d in np.unique(degree):
        group = degree == d
        for got, want in zip(flat, rank2(spectrum[group], support[group])):
            assert _bits(got[group]) == _bits(want), d


def test_table1_check_computes_no_one_or_two_tangles(monkeypatch):
    def refuse(*args):
        raise AssertionError("table1 needs only the three-tangle bounds")

    # The one-tangles are read inside tangle_columns, the two-tangles' SVD
    # runs in _two_tangles.
    monkeypatch.setattr(harness, "tangle_columns", refuse)
    monkeypatch.setattr(tangles, "_two_tangles", refuse)
    assert len(table1_check()) == 4 * len(_table1_states())


def test_tangle_columns_match_the_one_state_views(rng):
    amps = _engine_states(rng)[::7]
    cols = tangle_columns(amps)
    residuals = residual_columns(cols, 1.5)
    for i, v in enumerate(amps):
        psi = PureState(n_qubits=4, amplitudes=v)
        for f in range(1, 5):
            printed = tangle_report(psi, f)
            rep = printed["sm_report"]
            partners = [q for q in range(1, 5) if q != f]
            assert rep["focus"] == f and rep["residual_lower"] == residuals[i, f - 1]
            assert printed["tau1"] == rep["tau1"] == cols.tau1[i, f - 1]
            columns = {j: tangles.PAIRS.index(tuple(sorted((f, j)))) for j in partners}
            assert rep["tau2_terms"] == {j: cols.tau2[i, p] for j, p in columns.items()}
            assert printed["tau2_terms"] == rep["tau2_terms"]
            assert list(rep["tau2_terms"]) == partners
            pairs = list(itertools.combinations(partners, 2))
            assert list(rep["tau3_bounds"]) == [f"{j}|{k}" for j, k in pairs]
            for (j, k), bound in zip(pairs, rep["tau3_bounds"].values()):
                t = TRIPLES.index(tuple(sorted((f, j, k))))
                assert bound == cols.tau3.result((i, t))
                assert bound["value"] == cols.tau3.value[i, t]
                assert bound["method"] == METHODS[cols.tau3.method[i, t]]


def test_tangle_columns_rejects_bad_stacks():
    with pytest.raises(ValueError, match="shape"):
        tangle_columns(ghz(3).amplitudes[None])
    with pytest.raises(ValueError, match="norm"):
        tangle_columns(np.stack([ghz(4).amplitudes, 2.0 * ghz(4).amplitudes]))
    empty = tangle_columns(np.zeros((0, 16)))
    assert empty.tau1.shape == (0, 4) and empty.tau3.rdl.shape == (0, 4, 4)
