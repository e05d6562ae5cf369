import json
import warnings

import numpy as np
import pytest

from conftest import random_pure_state, random_unitary2
from qtangle import PureState, state_from_json
from qtangle.states import ghz, w
from qtangle.tangles import RANK_TOL
from reference import local_image, partial_trace, trace_norm, write_state


def test_purestate_normalizes_and_records_norm():
    psi = PureState.from_amplitudes([2.0, 0, 0, 0])
    assert psi.original_norm == pytest.approx(2.0)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_purestate_rejects_bad_lengths():
    with pytest.raises(ValueError):
        PureState.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PureState.from_amplitudes([1.0, 0.0])  # 1 qubit unsupported
    with pytest.raises(ValueError):
        PureState.from_amplitudes(np.zeros(4))
    with pytest.raises(ValueError, match="squared norm overflows"):  # not a zero state
        PureState.from_amplitudes(1e200 * ghz(3).amplitudes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from a log of 0 on the way
        with pytest.raises(ValueError, match="outside supported range"):
            PureState.from_amplitudes([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_purestate_rejects_non_finite_amplitudes(bad):
    amps = np.ones(16, dtype=complex)
    amps[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        PureState.from_amplitudes(amps)


def test_partial_trace_ghz4_single_qubit():
    rho = partial_trace(ghz(4), (1,))
    assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_product_state():
    psi = PureState.from_amplitudes(np.eye(16)[0])
    rho = partial_trace(psi, (2, 3))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_partial_trace_w4_marginal():
    # direct summation over the four W amplitudes: P(q1=0) = 3/4
    rho = partial_trace(w(4), (1,))
    assert np.allclose(rho, np.diag([0.75, 0.25]), atol=1e-12)


def test_schmidt_duality(rng):
    for n in (3, 4, 5):
        psi = random_pure_state(rng, n)
        for k in range(1, n):
            keep = tuple(range(1, k + 1))
            comp = tuple(range(k + 1, n + 1))
            ev_a = np.linalg.eigvalsh(partial_trace(psi, keep))
            ev_b = np.linalg.eigvalsh(partial_trace(psi, comp))
            nz_a = np.sort(ev_a[ev_a > 1e-10])
            nz_b = np.sort(ev_b[ev_b > 1e-10])
            assert len(nz_a) == len(nz_b)
            assert np.allclose(nz_a, nz_b, atol=1e-10)


def test_three_qubit_marginals_are_rank2(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 4)
        for keep in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
            evals = np.linalg.eigvalsh(partial_trace(psi, keep))
            assert evals[-3] < RANK_TOL  # the third largest eigenvalue


def test_trace_norm_basics():
    assert trace_norm(np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-14)
    assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_homogeneous(rng):
    h = rng.normal(size=(6, 6))
    h = h + h.T
    base = trace_norm(h)
    for c in (-2.5, 0.3, 7.0):
        assert trace_norm(c * h) == pytest.approx(abs(c) * base, abs=1e-10)


def test_local_images_identity_and_flip():
    ident = [np.eye(2)] * 4
    out = local_image(ghz(4), ident)
    assert np.allclose(out.amplitudes, ghz(4).amplitudes, atol=1e-12)

    flip = [np.array([[0, 1], [1, 0]])] + [np.eye(2)] * 3
    psi = PureState.from_amplitudes(np.eye(16)[0])
    out = local_image(psi, flip)
    assert np.allclose(out.amplitudes, np.eye(16)[0b1000], atol=1e-12)


def test_local_images_diag_example():
    ops = [np.diag([2.0, 0.5])] + [np.eye(2)] * 3
    out = local_image(ghz(4), ops)
    expected = np.zeros(16, dtype=complex)
    expected[0] = 2.0 / np.sqrt(2)
    expected[15] = 0.5 / np.sqrt(2)
    expected /= np.linalg.norm(expected)
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_json_round_trip(tmp_path, rng):
    psi = random_pure_state(rng, 3)
    path = tmp_path / "state.json"
    write_state(psi, path)
    back = state_from_json(path)
    assert back.n_qubits == 3
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-12)


def test_json_warns_on_denormalized(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": [[1.1, 0], [0, 0], [0, 0], [0, 0]]}))
    with pytest.warns(UserWarning):
        state_from_json(path)


def test_json_malformed():
    from qtangle.qstate import state_from_json_dict

    with pytest.raises(ValueError):
        state_from_json_dict({"n": 3, "amplitudes": [[1, 0]]})
    with pytest.raises(ValueError):
        state_from_json_dict({"amplitudes": []})
