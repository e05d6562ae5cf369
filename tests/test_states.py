import numpy as np
import pytest

import reference
from qtangle import GhzwParams, tangle_columns
from qtangle.harness import _TABLE1_GRID, SWEEP_BINDINGS, _table1_params
from qtangle.states import (
    CLASS_ARITY,
    NormalFormParams,
    _params,
    draw_samples,
    dress,
    ghz,
    ghzw,
    normal_form,
    normal_forms,
    random_slocc_state,
    sample_seed,
    sample_seed_words,
    w,
)
from reference import local_image, random_normal_form_params


def test_ghz_and_w_amplitudes():
    g = ghz(4)
    assert g.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert g.amplitudes[15] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(g.amplitudes) == 2

    ws = w(4)
    for idx in (1, 2, 4, 8):
        assert ws.amplitudes[idx] == pytest.approx(0.5)
    assert np.count_nonzero(ws.amplitudes) == 4

    with pytest.raises(ValueError):
        ghz(9)


def test_factories_check_the_qubit_count_first():
    # Before any 2**n array: w(1000) would ask numpy for 2**1000 amplitudes.
    for make in (lambda: ghz(5), lambda: w(1000), lambda: ghzw(GhzwParams(5, 0.6, 0.8, 0.0))):
        with pytest.raises(ValueError, match="supported range 2..4"):
            make()


def test_ghzw_superposition():
    s = 1 / np.sqrt(2)
    assert np.allclose(ghzw(GhzwParams(4, s, 0, s)).amplitudes, ghz(4).amplitudes)
    assert np.allclose(ghzw(GhzwParams(4, 0, 1, 0)).amplitudes, w(4).amplitudes)
    psi = ghzw(GhzwParams(4, 0.6, 0.8j, 0))
    assert psi.amplitudes[0] == pytest.approx(0.6)
    assert psi.amplitudes[1] == pytest.approx(0.4j)


def test_normal_form_class1_reduces_to_ghz():
    psi = normal_form(1, NormalFormParams(a=1, b=0, c=0, d=1))
    assert np.allclose(psi.amplitudes, ghz(4).amplitudes, atol=1e-12)


def test_normal_form_class9():
    psi = normal_form(9)
    expected = np.zeros(16)
    expected[0b0000] = expected[0b0111] = 1 / np.sqrt(2)
    assert np.allclose(psi.amplitudes, expected, atol=1e-12)


def test_normal_form_class5_at_zero():
    psi = normal_form(5, NormalFormParams(a=0))
    expected = np.zeros(16, dtype=complex)
    expected[0b0001] = 1j
    expected[0b0110] = 1
    expected[0b1011] = -1j
    expected /= np.linalg.norm(expected)
    assert np.allclose(psi.amplitudes, expected, atol=1e-12)


def test_normal_form_patterns_all_classes():
    # unnormalized patterns transcribed from the nine family definitions,
    # evaluated at fixed parameters a=1, b=2, c=3, d=4 (per arity)
    p = NormalFormParams(a=1, b=2, c=3, d=4)
    raw = {
        1: {0b0000: 2.5, 0b1111: 2.5, 0b0011: -1.5, 0b1100: -1.5,
            0b0101: 2.5, 0b1010: 2.5, 0b0110: -0.5, 0b1001: -0.5},
        2: {0b0000: 1.5, 0b1111: 1.5, 0b0011: -0.5, 0b1100: -0.5,
            0b0101: 3, 0b1010: 3, 0b0110: 1},
        3: {0b0000: 1, 0b1111: 1, 0b0101: 2, 0b1010: 2, 0b0110: 1, 0b0011: 1},
        4: {0b0000: 1, 0b1111: 1, 0b0101: 1.5, 0b1010: 1.5, 0b0110: -0.5,
            0b1001: -0.5, 0b0001: 1j / np.sqrt(2), 0b0010: 1j / np.sqrt(2),
            0b0111: 1j / np.sqrt(2), 0b1011: 1j / np.sqrt(2)},
        5: {0b0000: 1, 0b0101: 1, 0b1010: 1, 0b1111: 1, 0b0001: 1j,
            0b0110: 1, 0b1011: -1j},
        6: {0b0000: 1, 0b1111: 1, 0b0011: 1, 0b0101: 1, 0b0110: 1},
        7: {0b0000: 1, 0b0101: 1, 0b1000: 1, 0b1110: 1},
        8: {0b0000: 1, 0b1011: 1, 0b1101: 1, 0b1110: 1},
        9: {0b0000: 1, 0b0111: 1},
    }
    for cls, pattern in raw.items():
        vec = np.zeros(16, dtype=complex)
        for idx, val in pattern.items():
            vec[idx] = val
        vec /= np.linalg.norm(vec)
        psi = normal_form(cls, p)
        assert np.allclose(psi.amplitudes, vec, atol=1e-12), f"class {cls}"


def test_normal_form_zero_pattern_rejected():
    with pytest.raises(ValueError):
        normal_form(1, NormalFormParams())


def test_normal_form_param_validation():
    with pytest.raises(ValueError):
        NormalFormParams(a=-0.1)
    with pytest.raises(ValueError):
        normal_form(10)


def test_random_params_class7_empty():
    rng = np.random.default_rng(0)
    p = random_normal_form_params(7, rng)
    assert p.as_tuple(CLASS_ARITY[7]) == ()


def test_random_params_deterministic():
    a = random_normal_form_params(2, np.random.default_rng(np.random.SeedSequence(5)))
    b = random_normal_form_params(2, np.random.default_rng(np.random.SeedSequence(5)))
    assert a == b


def test_random_params_distribution():
    rng = np.random.default_rng(123)
    res = np.array([random_normal_form_params(1, rng).a.real for _ in range(10000)])
    ims = np.array([random_normal_form_params(1, rng).a.imag for _ in range(10000)])
    assert res.min() >= 0 and res.max() <= 1
    assert abs(res.mean() - 0.5) < 0.02
    assert ims.min() >= -1 and ims.max() <= 1


def test_sampler_determinism():
    s1, ops1 = random_slocc_state(3, sample_seed(42, 3, 7))
    s2, ops2 = random_slocc_state(3, sample_seed(42, 3, 7))
    assert np.array_equal(s1.amplitudes, s2.amplitudes)
    assert _bits(ops1) == _bits(ops2)
    s3, _ = random_slocc_state(3, sample_seed(42, 3, 8))
    assert not np.allclose(s1.amplitudes, s3.amplitudes)


def test_sampler_operator_determinants():
    for cls in range(1, 9):
        _, ops = random_slocc_state(cls, sample_seed(0, cls, 0))
        assert ops.shape == (4, 2, 2)
        for op in ops:
            assert abs(np.linalg.det(op) - 1.0) < 1e-10
    # At campaign scale: 1,000 samples of each class, 32,000 operators.
    for cls in range(1, 9):
        amps, ops = dress(cls, draw_samples(cls, 20260823, range(1000)))
        assert np.abs(np.linalg.det(ops) - 1.0).max() <= 1e-12, cls
        assert np.isfinite(amps).all()


def test_sampler_identity_path():
    # applying the returned operators' inverses recovers the normal form of
    # the parameters the sequential reference draws from the same seed
    seed = sample_seed(1, 2, 0)
    psi, ops = random_slocc_state(2, seed)
    _, params, _ = reference.draw_slocc(2, seed)
    back = local_image(psi, [np.linalg.inv(op) for op in ops])
    base = normal_form(2, params)
    overlap = abs(np.vdot(back.amplitudes, base.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_class1_marginal_tangles_vanish_under_unitaries():
    # the class-1 declared zeros survive local-unitary dressing (a unitary on
    # the traced qubit drops out of the marginal); generic determinant-1
    # operators do move the marginal tangles, see the notes ledger.
    from conftest import random_unitary2

    rng = np.random.default_rng(17)
    states = []
    for idx in range(5):
        params = random_normal_form_params(1, rng)
        psi = local_image(normal_form(1, params), [random_unitary2(rng) for _ in range(4)])
        states.append(psi.amplitudes)
    assert np.all(tangle_columns(np.array(states)).tau3.value < 1e-6)  # every triple


def test_class9_q1_marginal_tangles_vanish():
    states = [random_slocc_state(9, sample_seed(11, 9, idx))[0].amplitudes for idx in range(5)]
    # TRIPLES[:3] are (1, 2, 3), (1, 2, 4) and (1, 3, 4): the triples with qubit 1
    assert np.all(tangle_columns(np.array(states)).tau3.value[:, :3] < 1e-6)


# -- the stacked sampler against the sequential reference ---------------------------


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_seed_words_match_seed_sequence():
    # The PCG64 seed of each sample's stream, hashed for a stack at once, word
    # for word: master seeds of one, two and three 32-bit words.
    for master in (0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3):
        for cls in range(1, 9):
            want = [sample_seed(master, cls, i).generate_state(4, np.uint64) for i in range(300)]
            assert np.array_equal(sample_seed_words(master, cls, range(300)), want), (master, cls)
    # Indices of one and of two words in one stack: each entropy length takes
    # its own pass, and each row stays in its place.
    indices = [5, 2**32, 2**32 - 1, 2**63 + 11, 0, 2**64 - 1]
    want = [sample_seed(7, 3, i).generate_state(4, np.uint64) for i in indices]
    assert np.array_equal(sample_seed_words(7, 3, indices), want)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_stacked_sampler_matches_the_sequential_reference(chunk):
    for master in (0, 7, 20260823, 2**64 + 3):
        for cls in range(1, 10):
            seeds = [sample_seed(master, cls, i) for i in range(chunk)]
            draws = draw_samples(cls, master, range(chunk))
            amps, ops = dress(cls, draws)
            params = _params(draws.uniforms)
            for i, seed in enumerate(seeds):
                psi, ref_params, ref_ops = reference.random_slocc_state(cls, seed)
                assert _bits(amps[i]) == _bits(psi.amplitudes), (master, cls, i)
                assert _bits(ops[i]) == _bits(np.array(ref_ops))
                assert params[i].tolist() == list(ref_params.as_tuple(CLASS_ARITY[cls]))
                one, one_ops = random_slocc_state(cls, seed)
                assert _bits(one.amplitudes) == _bits(psi.amplitudes)
                assert _bits(one_ops) == _bits(ops[i])


def test_normal_forms_match_the_sequential_reference():
    rng = np.random.default_rng(11)
    cases = [(cls, SWEEP_BINDINGS[cls](float(a))) for cls in SWEEP_BINDINGS
             for a in np.linspace(0.0, 2.0, 41)]
    cases += [(cls, _table1_params(cls, t)) for cls in range(1, 10) for t in _TABLE1_GRID]
    cases += [(cls, random_normal_form_params(cls, rng)) for cls in range(1, 10) for _ in range(20)]
    cases += [(1, NormalFormParams(a=0.5, d=0.5)), (4, NormalFormParams(a=-0.0, b=0.3 - 0.0j))]
    for cls, params in cases:
        want = reference.normal_form(cls, params).amplitudes
        assert _bits(normal_form(cls, params).amplitudes) == _bits(want), (cls, params)
    for cls in range(1, 10):
        rows = [p.as_tuple(CLASS_ARITY[cls]) for c, p in cases if c == cls]
        amps, valid = normal_forms(cls, rows)
        assert valid.all()
        for row, params in zip(amps, [p for c, p in cases if c == cls]):
            assert _bits(row) == _bits(reference.normal_form(cls, params).amplitudes)


def test_normal_forms_flag_invalid_rows():
    amps, valid = normal_forms(2, [(0.5, 0.5, 0.5), (-0.1, -0.1, -0.1), (np.nan, 0, 0), (1, 1, 1)])
    assert valid.tolist() == [True, False, False, True]
    assert _bits(amps[3]) == _bits(normal_form(2, NormalFormParams(1, 1, 1)).amplitudes)
    assert normal_forms(1, [(0, 0, 0, 0)])[1].tolist() == [False]
    with pytest.raises(ValueError, match="vanishes"):
        normal_form(1, NormalFormParams())
    with pytest.raises(ValueError, match="rows of 3"):
        normal_forms(2, [(0.5, 0.5)])
