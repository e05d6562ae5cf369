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
    one_tangle,
    partial_trace,
    pure_tangles,
    rank2_decompose,
    simplex_member,
    three_tangle_pure,
    three_tangle_upper,
    trace_norm,
    two_tangle,
    wclass_roots,
)
from qtangle.harness import SWEEP_BINDINGS, _table1_params
from qtangle.states import CLASS_ARITY, NormalFormParams, ghz, normal_form, w
from qtangle.tangles import SUPPORT_TOL, _simplex_solve


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
        three_tangle_pure(np.ones(4))


# --------------------------------------------------------------- wclass_roots


def test_wclass_roots_ghz4_marginal():
    dec = rank2_decompose(partial_trace(ghz(4), (1, 2, 3)))
    ws = wclass_roots(dec)
    finite = [z for z in ws.roots if z is not None]
    infinite = [z for z in ws.roots if z is None]
    assert len(finite) == 2 and len(infinite) == 2
    assert np.allclose(np.abs(finite), 0.0, atol=1e-10)
    expected_pi = np.zeros((8, 8), dtype=complex)
    expected_pi[0, 0] = expected_pi[7, 7] = 0.5
    assert np.allclose(ws.pi.entries, expected_pi, atol=1e-10)


def test_wclass_roots_states_have_zero_tangle(rng):
    for _ in range(30):
        psi = random_pure_state(rng, 4)
        dec = rank2_decompose(partial_trace(psi, (1, 2, 3)))
        ws = wclass_roots(dec)
        for zstate in ws.z_states:
            assert three_tangle_pure(zstate) < 1e-9
        mix = np.mean(
            [np.outer(s.amplitudes, s.amplitudes.conj()) for s in ws.z_states], axis=0
        )
        assert np.max(np.abs(mix - ws.pi.entries)) < 1e-10


def test_wclass_roots_distinct_root_case(rng):
    # span of GHZ3 and a generic orthogonal direction: quartic with 4 roots
    e1 = ghz(3).amplitudes
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v -= np.vdot(e1, v) * e1
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_entries(0.6 * np.outer(e1, e1.conj()) + 0.4 * np.outer(v, v.conj()))
    ws = wclass_roots(rank2_decompose(rho))
    assert not ws.all_zero
    for zstate in ws.z_states:
        assert three_tangle_pure(zstate) < 1e-9


def test_wclass_roots_rejects_pure():
    dec = rank2_decompose(ghz(3).projector())
    with pytest.raises(ValueError):
        wclass_roots(dec)


def test_wclass_roots_degenerate_span():
    # span of |000> and |011>: the tangle polynomial vanishes identically
    rho = DensityMatrix.from_entries(
        np.diag([0.5, 0, 0, 0.5, 0, 0, 0, 0]).astype(complex)
    )
    ws = wclass_roots(rank2_decompose(rho))
    assert ws.all_zero
    for zstate in ws.z_states:
        assert three_tangle_pure(zstate) < 1e-12


# -------------------------------------------------------------- simplex_member


def test_simplex_member_pi_itself(rng):
    psi = random_pure_state(rng, 4)
    rho = partial_trace(psi, (1, 2, 3))
    ws = wclass_roots(rank2_decompose(rho))
    member, weights = simplex_member(ws.pi, ws)
    assert member
    if len({None if z is None else complex(np.round(z, 9)) for z in ws.roots}) == 4:
        assert np.allclose(weights, 0.25, atol=1e-7)


def test_simplex_member_ghz4_marginal():
    rho = partial_trace(ghz(4), (1, 2, 3))
    ws = wclass_roots(rank2_decompose(rho))
    member, _ = simplex_member(rho, ws)
    assert member


def test_simplex_member_rejects_ghz3(rng):
    # a state with unit three-tangle cannot sit in a zero-tangle simplex
    e1 = ghz(3).amplitudes
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v -= np.vdot(e1, v) * e1
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_entries(0.6 * np.outer(e1, e1.conj()) + 0.4 * np.outer(v, v.conj()))
    ws = wclass_roots(rank2_decompose(rho))
    member, _ = simplex_member(ghz(3).projector(), ws)
    assert not member


def test_simplex_member_support_check(rng):
    # membership is only defined for states living on the simplex span
    psi = random_pure_state(rng, 4)
    rho = partial_trace(psi, (1, 2, 3))
    ws = wclass_roots(rank2_decompose(rho))
    with pytest.raises(ValueError):
        simplex_member(ghz(3).projector(), ws)


def test_simplex_member_random_mixtures(rng):
    # random convex mixtures of the simplex states are members with zero bound
    for _ in range(10):
        psi = random_pure_state(rng, 4)
        rho = partial_trace(psi, (1, 2, 3))
        ws = wclass_roots(rank2_decompose(rho))
        wts = rng.dirichlet(np.ones(4))
        mix = sum(
            p * np.outer(s.amplitudes, s.amplitudes.conj())
            for p, s in zip(wts, ws.z_states)
        )
        mix_dm = DensityMatrix.from_entries(0.5 * (mix + mix.conj().T))
        member, _ = simplex_member(mix_dm, ws)
        assert member


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


def _normal_form_marginals():
    states = [
        normal_form(cls, SWEEP_BINDINGS[cls](float(a)))
        for cls in SWEEP_BINDINGS
        for a in np.linspace(0.05, 1.95, 20)
    ]
    for cls in range(1, 10):
        for t in [None] if CLASS_ARITY[cls] == 0 else np.linspace(0.15, 1.95, 10):
            params = NormalFormParams() if t is None else _table1_params(cls, t)
            states.append(normal_form(cls, params))
    for psi in states:
        for triple in itertools.combinations(range(1, 5), 3):
            rho = partial_trace(psi, triple)
            dec = rank2_decompose(rho)
            if not dec.pure:
                yield rho, wclass_roots(dec)


def test_simplex_member_matches_lp_on_normal_form_marginals():
    # Normal-form marginals are where repeated roots make the system rank
    # deficient. The reference works on the 8x8 matrices: rho against the
    # projectors of the four W-class states, real and imaginary parts.
    counts = {(full, m): 0 for full in (True, False) for m in (True, False)}
    for rho, ws in _normal_form_marginals():
        member, weights = simplex_member(rho, ws)
        proj = np.array([np.outer(z.amplitudes, z.amplitudes.conj()).ravel() for z in ws.z_states])
        proj, target = proj.T, rho.entries.ravel()
        columns = np.concatenate([proj.real, proj.imag])
        d = _lp_distance(columns, np.concatenate([target.real, target.imag]))
        assert d < 1e-9 or d >= 1e-6  # the tolerance cannot decide the case
        assert member == (d < 1e-9)
        if member:
            assert weights.min() >= 0.0
            assert np.max(np.abs(proj @ weights - target)) < SUPPORT_TOL
        counts[(np.linalg.matrix_rank(columns) == 4, member)] += 1
    assert counts[(False, True)] >= 100 and counts[(False, False)] >= 100
    assert counts[(True, True)] + counts[(True, False)] >= 10


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
        ws = wclass_roots(rank2_decompose(rho))
        wts = rng.dirichlet(np.ones(4))
        mix = sum(
            p * np.outer(s.amplitudes, s.amplitudes.conj())
            for p, s in zip(wts, ws.z_states)
        )
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
            pi = wclass_roots(rank2_decompose(rho)).pi.entries
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
        for focus in range(1, 5):
            assert one_tangle(rotated, focus) == pytest.approx(
                one_tangle(psi, focus), abs=1e-9
            )
        for pair in itertools.combinations(range(1, 5), 2):
            assert two_tangle(partial_trace(rotated, pair)) == pytest.approx(
                two_tangle(partial_trace(psi, pair)), abs=1e-9
            )
