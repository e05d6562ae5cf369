import itertools

import numpy as np
import pytest

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
from qtangle.states import ghz, w


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
