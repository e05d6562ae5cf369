import numpy as np
import pytest

import reference
from conftest import first_seed_word, singular_streams
from qtangle import GhzwParams, tangle_columns
from qtangle.harness import _TABLE1_GRID, SWEEP_BINDINGS, _table1_params
from qtangle.states import (
    CLASS_ARITY,
    NormalFormParams,
    draw_samples,
    draw_slocc,
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
    s1, p1 = random_slocc_state(3, sample_seed(42, 3, 7))
    s2, p2 = random_slocc_state(3, sample_seed(42, 3, 7))
    assert np.array_equal(s1.amplitudes, s2.amplitudes)
    assert p1.params == p2.params
    s3, _ = random_slocc_state(3, sample_seed(42, 3, 8))
    assert not np.allclose(s1.amplitudes, s3.amplitudes)


def test_sampler_operator_determinants():
    for cls in range(1, 9):
        _, prov = random_slocc_state(cls, sample_seed(0, cls, 0))
        for op in prov.operators:
            assert abs(np.linalg.det(op) - 1.0) < 1e-10


def test_sampler_identity_path():
    # applying the recorded operators' inverses recovers the normal form
    from qtangle.states import normal_form as nf

    psi, prov = random_slocc_state(2, sample_seed(1, 2, 0))
    inv = [np.linalg.inv(op) for op in prov.operators]
    back = local_image(psi, inv)
    base = nf(2, prov.params)
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


def test_provenance_serializes():
    _, prov = random_slocc_state(4, sample_seed(2, 4, 3))
    d = prov.to_json_dict()
    assert d["class"] == 4
    assert set(d["params"]) == {"a", "b"}
    assert len(d["operators"]) == 4


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
            for i, seed in enumerate(seeds):
                psi, prov = reference.random_slocc_state(cls, seed)
                assert _bits(amps[i]) == _bits(psi.amplitudes), (master, cls, i)
                assert _bits(ops[i]) == _bits(np.array(prov.operators))
                one = draw_slocc(cls, seed)
                assert _bits(one.uniforms) == _bits(draws[i].uniforms)
                assert _bits(one.gaussians) == _bits(draws[i].gaussians)
                one, one_prov = random_slocc_state(cls, seed)
                assert _bits(one.amplitudes) == _bits(psi.amplitudes)
                assert one_prov.to_json_dict() == prov.to_json_dict()
                assert one_prov.params == prov.params


def test_stacked_sampler_retries_a_singular_operator_as_the_reference(monkeypatch):
    # The first operator's first draw is singular, so the reference draws it
    # again and every later operator comes from the next draw of the stream.
    # The stacked sampler continues the stream the same way, for a retrying
    # sample alone and among other samples, from a one-sample draw and from a
    # chunk draw, and gives the same bits on a second call of the same draws.
    cls, seeds = 4, [sample_seed(3, 4, i) for i in range(5)]
    plain = dress(cls, [draw_slocc(cls, seeds[2])])[0]
    singular = first_seed_word(seeds[2])
    singular_streams(monkeypatch, lambda seed: 8 * (first_seed_word(seed) == singular), True)
    psi, prov = reference.random_slocc_state(cls, seeds[2])
    for draws in ([draw_slocc(cls, seed) for seed in seeds], draw_samples(cls, 3, range(5))):
        for _ in range(2):
            amps, ops = dress(cls, draws)
            assert _bits(amps[2]) == _bits(psi.amplitudes)
            assert _bits(ops[2]) == _bits(np.array(prov.operators))
            assert _bits(dress(cls, draws[2:3])[0]) == _bits(psi.amplitudes)
        assert not np.allclose(amps[2], plain[0])
        for i in (0, 1, 3, 4):
            want = reference.random_slocc_state(cls, seeds[i])[0].amplitudes
            assert _bits(amps[i]) == _bits(want)


def test_stacked_sampler_gives_up_after_100_singular_draws(monkeypatch):
    singular_streams(monkeypatch, lambda seed: 10**6, True)
    seed = sample_seed(0, 2, 0)
    with pytest.raises(RuntimeError, match="rejected 100 singular draws") as want:
        reference.random_slocc_state(2, seed)
    for draws in ([draw_slocc(2, seed)], draw_samples(2, 0, [0])):
        with pytest.raises(RuntimeError) as got:
            dress(2, draws)
        assert str(got.value) == str(want.value)


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
