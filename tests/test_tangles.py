import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_pure_state, random_unitary2
from qtangle import (
    DensityMatrix,
    PureState,
    apply_local_operators,
    four_qubit_tangles,
    partial_trace,
    pure_tangles,
    rank2_decompose,
    three_tangle_pure,
    three_tangle_upper,
)
from qtangle.harness import SWEEP_BINDINGS, _table1_params
from qtangle.states import CLASS_ARITY, NormalFormParams, ghz, normal_form, w
from qtangle.tangles import (
    SUPPORT_TOL,
    _companion_roots,
    _quartic_coeffs,
    _quartic_degree,
    _simplex_solve,
    _wclass_bloch,
)
from reference import one_tangle, trace_norm, two_tangle, wclass_states


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
            lin = 2.0 * (1.0 - np.trace(rho.entries @ rho.entries).real)
            assert one_tangle(psi, focus) == pytest.approx(lin, abs=1e-10)


# ---------------------------------------------------------------- two_tangle


def test_two_tangle_examples():
    assert two_tangle(bell_pair().projector()) == pytest.approx(1.0, abs=1e-12)
    assert two_tangle(PureState.from_amplitudes([1, 0, 0, 0]).projector()) == pytest.approx(
        0.0, abs=1e-12
    )
    assert two_tangle(partial_trace(w(4), (1, 2))) == pytest.approx(0.25, abs=1e-12)


def test_two_tangle_pure_determinant_identity(rng):
    for _ in range(30):
        psi = random_pure_state(rng, 2)
        c = psi.amplitudes
        expected = 4.0 * abs(c[0] * c[3] - c[1] * c[2]) ** 2
        assert two_tangle(psi.projector()) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------- three_tangle_pure


def test_three_tangle_pure_examples():
    assert three_tangle_pure(ghz(3)) == pytest.approx(1.0, abs=1e-12)
    assert three_tangle_pure(w(3)) == pytest.approx(0.0, abs=1e-12)
    for p in (0.1, 0.37, 0.5, 0.9):
        amps = np.zeros(8)
        amps[0] = np.sqrt(p)
        amps[7] = np.sqrt(1 - p)
        psi = PureState.from_amplitudes(amps)
        assert three_tangle_pure(psi) == pytest.approx(4 * p * (1 - p), abs=1e-12)


def test_three_tangle_permutation_invariant(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 3)
        base = three_tangle_pure(psi)
        t = psi.amplitudes.reshape(2, 2, 2)
        for perm in itertools.permutations(range(3)):
            permuted = PureState.from_amplitudes(np.transpose(t, perm).ravel())
            assert three_tangle_pure(permuted) == pytest.approx(base, abs=1e-10)


def test_three_tangle_local_unitary_invariant(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 3)
        rotated = apply_local_operators(psi, [random_unitary2(rng) for _ in range(3)])
        assert three_tangle_pure(rotated) == pytest.approx(three_tangle_pure(psi), abs=1e-9)


def test_three_tangle_wrong_size():
    with pytest.raises(ValueError):
        three_tangle_pure(ghz(4))
    with pytest.raises(ValueError):
        three_tangle_pure(bell_pair())


# ------------------------------------------------------- W-class vertices
#
# The package's W-class states of a rank-2 support are Bloch vectors in the
# frame (e1, e2) of its eigenvectors; the reference gives them as 8-vectors.


def _support(rho):
    dec = rank2_decompose(rho)
    return dec.e1, dec.e2


def _package_vertices(e1, e2):
    """The package's W-class Bloch vectors (4, 3) of the span of e1, e2, or
    None where its quartic vanishes identically."""
    coeffs = _quartic_coeffs(np.stack([e1, e2])[None])
    degree = int(_quartic_degree(coeffs)[0])
    if degree < 0:
        return None
    return _wclass_bloch(_companion_roots(coeffs[:, : degree + 1]))[0]


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
            assert three_tangle_pure(PureState.from_amplitudes(v, n_qubits=3)) < 1e-9


def test_wclass_roots_distinct_root_case(rng):
    # span of GHZ3 and a generic orthogonal direction: quartic with 4 roots
    g = ghz(3).amplitudes
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v -= np.vdot(g, v) * g
    v /= np.linalg.norm(v)
    e1, e2 = _support(DensityMatrix.from_entries(_mixture([g, v], [0.6, 0.4])))
    coeffs = _quartic_coeffs(np.stack([e1, e2])[None])
    assert _quartic_degree(coeffs)[0] == 4
    roots = _companion_roots(coeffs)[0]
    assert min(abs(a - b) for a, b in itertools.combinations(roots, 2)) > 1e-3
    for v in _from_bloch(_package_vertices(e1, e2), e1, e2):
        assert three_tangle_pure(PureState.from_amplitudes(v, n_qubits=3)) < 1e-9


def test_wclass_roots_degenerate_span():
    # span of |000> and |011>: the tangle polynomial vanishes identically
    rho = DensityMatrix.from_entries(
        np.diag([0.5, 0, 0, 0.5, 0, 0, 0, 0]).astype(complex)
    )
    e1, e2 = _support(rho)
    assert _package_vertices(e1, e2) is None
    res = three_tangle_upper(rho)
    assert (res.value, res.method, res.diagnostics) == (0.0, "simplex-zero", {})
    for v in wclass_states(e1, e2):
        assert three_tangle_pure(PureState.from_amplitudes(v, n_qubits=3)) < 1e-12


# ------------------------------------------------------ W-simplex membership


def test_simplex_member_pi_itself(rng):
    for _ in range(10):
        psi = random_pure_state(rng, 4)
        pi = _mixture(wclass_states(*_support(partial_trace(psi, (1, 2, 3)))), [0.25] * 4)
        res = three_tangle_upper(DensityMatrix.from_entries(0.5 * (pi + pi.conj().T)))
        assert (res.value, res.method) == (0.0, "pi-coincidence")


def test_simplex_member_ghz4_marginal():
    for triple in itertools.combinations(range(1, 5), 3):
        res = three_tangle_upper(partial_trace(ghz(4), triple))
        assert (res.value, res.method) == (0.0, "pi-coincidence")


def test_simplex_member_rejects_ghz3(rng):
    # a state near GHZ3, whose three-tangle is 1, is outside the zero-tangle
    # simplex of its support
    e1 = ghz(3).amplitudes
    for _ in range(10):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v -= np.vdot(e1, v) * e1
        v /= np.linalg.norm(v)
        rho = 0.95 * np.outer(e1, e1.conj()) + 0.05 * np.outer(v, v.conj())
        res = three_tangle_upper(DensityMatrix.from_entries(rho))
        assert res.method == "rdl-line" and res.value > 0.5


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


def test_simplex_solve_matches_lp_on_random_simplices(rng):
    inside = outside = 0
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
            _check_against_lp(w, points[keep], margin[keep] > 0)
            inside += np.sum(margin >= 1e-6)
            outside += np.sum(margin <= -1e-6)
    assert inside >= 100 and outside >= 100


def test_simplex_solve_matches_lp_on_degenerate_hulls(rng):
    for _ in range(10):
        v = _unit(rng.normal(size=(3, 3)))
        # A repeated root: conv is the triangle v0 v1 v2.
        tri = v[[0, 1, 2, 2]]
        off_plane = _unit(np.cross(v[1] - v[0], v[2] - v[0]))
        pts = [rng.dirichlet(np.ones(3) * 5.0, size=4) @ v,
               _pushed_off(rng, v, off_plane, (2e-6, -1e-3)),
               _pushed_off(rng, v[:2], _outward(np.cross(off_plane, v[1] - v[0]), v[0], v[2]),
                           (2e-6, 1e-2))]
        _check_against_lp(tri, np.concatenate(pts), [True] * 4 + [False] * 4)
        # Two repeated roots: conv is the segment v0 v1.
        seg = v[[0, 0, 1, 1]]
        across = _unit(np.cross(v[1] - v[0], rng.normal(size=3)))
        pts = [rng.dirichlet(np.ones(2) * 5.0, size=3) @ v[:2],
               _pushed_off(rng, v[:2], across, (2e-6, -1e-3))]
        _check_against_lp(seg, np.concatenate(pts), [True] * 3 + [False] * 2)
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
        _check_against_lp(circle, pts, [True] * 4 + [False] * (len(pts) - 4))


def _marginals(rng):
    """Every mixed triple marginal, with its rank-2 decomposition, of the
    sweep and Table 1 normal forms, GHZ4, W4 and 60 random states."""
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
            dec = rank2_decompose(rho)
            if not dec.pure:
                yield rho, dec


def test_simplex_member_matches_lp_on_normal_form_marginals(rng):
    # Normal-form marginals are where repeated roots make the system rank
    # deficient. The package's decision (a zero bound by simplex-zero or
    # pi-coincidence) is checked on the 8x8 matrices against an LP: rho
    # against the projectors of the reference W-class states, real and
    # imaginary parts. Their order is the package's, so its weights rebuild rho.
    counts = {(full, m): 0 for full in (True, False) for m in (True, False)}
    for rho, dec in _marginals(rng):
        res = three_tangle_upper(rho)
        member = res.method in ("simplex-zero", "pi-coincidence")
        states = wclass_states(dec.e1, dec.e2)
        proj = np.array([np.outer(v, v.conj()).ravel() for v in states]).T
        target = rho.entries.ravel()
        columns = np.concatenate([proj.real, proj.imag])
        d = _lp_distance(columns, np.concatenate([target.real, target.imag]))
        assert d < 1e-9 or d >= 1e-6  # the tolerance cannot decide the case
        assert member == (d < 1e-9)
        if "weights" in res.diagnostics:
            weights = np.array(res.diagnostics["weights"])
            assert weights.min() >= 0.0
            assert np.max(np.abs(proj @ weights - target)) < SUPPORT_TOL
        counts[(np.linalg.matrix_rank(columns) == 4, member)] += 1
    assert counts[(False, True)] >= 100 and counts[(False, False)] >= 100
    assert counts[(True, True)] + counts[(True, False)] >= 10


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
    for _, dec in _marginals(rng):
        w = _package_vertices(dec.e1, dec.e2)
        if w is None:  # covered by the membership test: a zero bound
            continue
        ref = _bloch(wclass_states(dec.e1, dec.e2), dec.e1, dec.e2)
        gap = min(
            np.max(np.linalg.norm(w[list(p)] - ref, axis=1))
            for p in itertools.permutations(range(4))
        )
        assert gap <= VERTEX_TOL
        assert np.linalg.norm(w.mean(axis=0) - ref.mean(axis=0)) <= MEAN_TOL
        compared += 1
    assert compared >= 800


# ----------------------------------------------------------- three_tangle_upper


def test_upper_exact_pure():
    res = three_tangle_upper(ghz(3).projector())
    assert res.method == "exact-pure"
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_upper_pi_coincidence():
    res = three_tangle_upper(partial_trace(ghz(4), (1, 2, 3)))
    assert res.method == "pi-coincidence"
    assert res.value == 0.0


def test_upper_simplex_zero_for_constructed_mixtures(rng):
    hits = 0
    for _ in range(10):
        psi = random_pure_state(rng, 4)
        rho = partial_trace(psi, (1, 2, 3))
        mix = _mixture(wclass_states(*_support(rho)), rng.dirichlet(np.ones(4)))
        res = three_tangle_upper(DensityMatrix.from_entries(0.5 * (mix + mix.conj().T)))
        assert res.value == 0.0
        if res.method == "simplex-zero":
            hits += 1
    assert hits >= 8  # pi-coincidence may absorb the occasional draw


def test_upper_value_range_and_rank_guard(rng):
    for _ in range(30):
        psi = random_pure_state(rng, 4)
        res = three_tangle_upper(partial_trace(psi, (2, 3, 4)))
        assert 0.0 <= res.value <= 1.0
        if res.method == "rdl-line":
            assert res.diagnostics["kappa"] > 0
    from qtangle import RankError

    with pytest.raises(RankError):
        three_tangle_upper(
            DensityMatrix.from_entries(np.diag([0.5, 0.25, 0.25, 0, 0, 0, 0, 0]).astype(complex))
        )


def test_rdl_line_geometry_matches_8x8_matrices(rng):
    # The diagnostics of a ray bound, rebuilt from 8x8 matrices without the
    # support frame: pi is the W-mixture, rho + t (rho - pi) is the pure
    # surface state, and the bound rescales that state's exact three-tangle.
    checked = 0
    for _ in range(40):
        psi = random_pure_state(rng, 4)
        for triple in itertools.combinations(range(1, 5), 3):
            rho = partial_trace(psi, triple)
            res = three_tangle_upper(rho)
            if res.method != "rdl-line":
                continue
            diag = res.diagnostics
            pi = _mixture(wclass_states(*_support(rho)), [0.25] * 4)
            t = diag["kappa"] / trace_norm(rho.entries - pi)
            assert diag["trace_norm_ratio"] == pytest.approx(1.0 / (1.0 + t) ** 2, rel=1e-11)
            evals, evecs = np.linalg.eigh((1.0 + t) * rho.entries - t * pi)
            assert evals[-1] == pytest.approx(1.0, abs=1e-8)
            assert np.max(np.abs(evals[:-1])) < 1e-8
            surface = PureState.from_amplitudes(evecs[:, -1], n_qubits=3)
            expected = diag["trace_norm_ratio"] * three_tangle_pure(surface)
            assert diag["raw_value"] == pytest.approx(expected, abs=1e-11)
            checked += 1
    assert checked >= 100


def test_four_qubit_tangles_rejects_nan_state():
    with pytest.raises(ValueError, match="norm"):
        four_qubit_tangles(PureState(n_qubits=4, amplitudes=np.full(16, np.nan, dtype=complex)))
    with pytest.raises(ValueError, match="norm"):
        pure_tangles(PureState(n_qubits=3, amplitudes=np.full(8, np.nan, dtype=complex)))


def test_pure_tangles_match_per_marginal_reference(rng):
    for n in range(2, 9):
        qubits = range(1, n + 1)
        for _ in range(3):
            psi = random_pure_state(rng, n)
            tau1, tau2 = pure_tangles(psi)
            assert list(tau1) == list(qubits)
            assert list(tau2) == list(itertools.combinations(qubits, 2))
            for focus, value in tau1.items():
                assert abs(value - one_tangle(psi, focus)) <= 1e-12
            for pair, value in tau2.items():
                rho = psi.projector() if n == 2 else partial_trace(psi, pair)
                assert abs(value - two_tangle(rho)) <= 1e-12


def test_pure_tangles_examples():
    tau1, tau2 = pure_tangles(bell_pair())
    assert tau1 == pytest.approx({1: 1.0, 2: 1.0}, abs=1e-12)
    assert tau2 == pytest.approx({(1, 2): 1.0}, abs=1e-12)
    tau1, tau2 = pure_tangles(w(3))
    assert all(v == pytest.approx(8 / 9, abs=1e-12) for v in tau1.values())
    assert all(v == pytest.approx(4 / 9, abs=1e-12) for v in tau2.values())


def test_tangles_invariant_under_local_unitaries(rng):
    # downstream invariance check shared with the qstate module contract
    for _ in range(5):
        psi = random_pure_state(rng, 4)
        rotated = apply_local_operators(psi, [random_unitary2(rng) for _ in range(4)])
        for before, after in zip(pure_tangles(psi), pure_tangles(rotated)):
            assert after == pytest.approx(before, abs=1e-9)
