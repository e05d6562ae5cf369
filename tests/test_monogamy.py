import json

import numpy as np
import pytest

from conftest import random_pure_state, sm_reports
from qtangle import (
    GhzwParams,
    PureState,
    residual_columns,
    tangle_columns,
    tangle_report,
    three_tangle_pure,
)
from qtangle.harness import SWEEP_BINDINGS
from qtangle.monogamy import _check_mu3
from qtangle.states import ghz, ghzw, normal_form, random_slocc_state, sample_seed, w
from reference import local_image, one_tangle, partial_trace, rank2_bound, two_tangle

# Tensor route (the engine's reports) against the per-marginal reference.
TAU1_TOL = 1e-12
TAU2_TOL = 2e-8  # the reference's eigh/sqrt step loses up to ~1e-8 on rank-deficient pairs
TAU3_TOL = 1e-8


def test_check_mu3():
    for good in (1.5, 2, np.float64(3.0)):
        _check_mu3(good)
        json.dumps(tangle_report(ghz(4), 1, good), allow_nan=False)
    # Checked, not coerced: each would reach the report as it is, where inf
    # is not JSON, np.int64 is not serializable and True is not a number.
    for bad in (-1.0, 0.0, float("nan"), float("inf"), np.int64(2), True):
        with pytest.raises(ValueError, match="mu3"):
            _check_mu3(bad)
        with pytest.raises(ValueError, match="mu3"):
            tangle_report(ghz(4), 1, bad)


def test_residual_columns_rejects_bad_mu3():
    # A NaN mu3 would make every residual NaN, which no threshold counts as
    # a violation, and a zero one would send W4's residuals to -3.
    cols = tangle_columns(np.stack([ghz(4).amplitudes, w(4).amplitudes]))
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mu3"):
            residual_columns(cols, bad)


def ckw_residual(psi: PureState, focus: int) -> float:
    return tangle_report(psi, focus)["ckw_residual"]


def test_residual_three_tangle_examples():
    # A three-qubit state's CKW residual is its three-tangle.
    for focus in (1, 2, 3):
        assert ckw_residual(ghz(3), focus) == pytest.approx(1.0, abs=1e-10)
        assert ckw_residual(w(3), focus) == pytest.approx(0.0, abs=1e-9)
    bell_with_spectator = PureState.from_amplitudes([1, 0, 0, 1, 0, 0, 0, 0])
    assert ckw_residual(bell_with_spectator, 1) == pytest.approx(0.0, abs=1e-10)
    assert "tau3" not in tangle_report(ghz(4), 1)


def test_residual_three_tangle_focus_independent(rng):
    for _ in range(50):
        psi = random_pure_state(rng, 3)
        vals = [ckw_residual(psi, f) for f in (1, 2, 3)]
        assert max(vals) - min(vals) < 1e-9
        assert vals[0] == pytest.approx(three_tangle_pure(psi), abs=1e-9)


def test_residual_three_tangle_exact_on_zero_tangle_states(rng):
    # SLOCC-dressed W and biseparable states have rank-deficient pair
    # marginals, where an eigh/sqrt route through the density matrix loses
    # about 1e-8; the residual must stay the closed-form three-tangle.
    worst = 0.0
    for _ in range(100):
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        dressed_w = local_image(w(3), ops)
        product = PureState.from_amplitudes(np.kron([1, 0], random_pure_state(rng, 2).amplitudes))
        for psi in (dressed_w, product):
            for focus in (1, 2, 3):
                worst = max(worst, abs(ckw_residual(psi, focus) - three_tangle_pure(psi)))
    assert worst <= 1e-12, worst


def test_ckw_residual_is_the_reports_own():
    # Class-7 states, whose rank-deficient pair marginals split the old
    # per-marginal route from the report's by about 1e-8.
    states = [random_slocc_state(7, sample_seed(20260823, 7, idx))[0] for idx in range(18)]
    for psi, reports in zip(states, sm_reports(states)):
        for rep in reports:
            own = rep["tau1"] - sum(rep["tau2_terms"].values())
            assert ckw_residual(psi, rep["focus"]) == own


def test_focus_outside_range_rejected():
    for psi in (ghz(3), w(4)):
        for focus in (0, psi.n_qubits + 1):
            with pytest.raises(ValueError, match="focus"):
                tangle_report(psi, focus)


def test_ckw_residual_examples(rng):
    assert ckw_residual(ghz(4), 1) == pytest.approx(1.0, abs=1e-10)
    assert ckw_residual(w(4), 1) == pytest.approx(0.0, abs=1e-9)
    for _ in range(30):
        for n in (3, 4):
            psi = random_pure_state(rng, n)
            for focus in range(1, n + 1):
                assert ckw_residual(psi, focus) >= -1e-9


def test_tau4_lower_bound_ghz4():
    for rep in sm_reports([ghz(4)])[0]:
        assert rep["tau1"] == pytest.approx(1.0, abs=1e-9)
        assert rep["residual_lower"] == pytest.approx(1.0, abs=1e-9)


def test_tau4_lower_bound_w4():
    rep = sm_reports([w(4)])[0][0]
    assert rep["residual_lower"] == pytest.approx(0.0, abs=1e-9)


def test_tau4_lower_bound_g9():
    reports = sm_reports([normal_form(9)])[0]
    for rep in reports:
        assert rep["residual_lower"] == pytest.approx(0.0, abs=1e-9)
    # the q2q3q4 marginal is a pure GHZ of three qubits
    rep2 = reports[1]
    assert rep2["tau3_bounds"]["3|4"]["method"] == "exact-pure"
    assert rep2["tau3_bounds"]["3|4"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_sm_report_self_consistency(rng):
    states = [random_pure_state(rng, 4) for _ in range(10)]
    for psi, reports in zip(states, sm_reports(states)):
        for rep in reports:
            recomputed = (
                rep["tau1"]
                - sum(rep["tau2_terms"].values())
                - sum(b["value"] ** rep["mu3"] for b in rep["tau3_bounds"].values())
            )
            assert rep["residual_lower"] == pytest.approx(recomputed, abs=1e-12)
            assert rep["residual_lower"] <= ckw_residual(psi, rep["focus"]) + 1e-12


def _reference_states():
    for cls in range(1, 9):
        for idx in range(8):
            yield random_slocc_state(cls, sample_seed(20260823, cls, idx))[0]
    for cls, binding in SWEEP_BINDINGS.items():
        for a in np.arange(0.0, 2.0001, 0.1):
            try:
                yield normal_form(cls, binding(float(a)))
            except ValueError:
                continue


def test_sm_report_matches_per_marginal_reference():
    checked = 0
    states = list(_reference_states())
    for psi, reports in zip(states, sm_reports(states)):
        for rep in reports:
            f = rep["focus"]
            assert abs(rep["tau1"] - one_tangle(psi, f)) <= TAU1_TOL
            for j, tau2 in rep["tau2_terms"].items():
                ref = two_tangle(partial_trace(psi, tuple(sorted((f, j)))))
                assert abs(tau2 - ref) <= TAU2_TOL
            for jk, bound in rep["tau3_bounds"].items():
                triple = tuple(sorted((f, *map(int, jk.split("|")))))
                ref = rank2_bound(partial_trace(psi, triple))
                assert abs(bound["value"] - ref["value"]) <= TAU3_TOL
                # a zero bound may be reached by a different shortcut
                assert bound["method"] == ref["method"] or ref["value"] < 1e-12
            checked += 1
    assert checked == 4 * (8 * 8 + 5 * 21)


def _mp_two_tangle(mpmath, amps, pair):
    """Wootters' two-tangle from the spin-flip spectrum of rho, in 40 digits."""
    rest = [q for q in range(4) if q + 1 not in pair]
    m = np.asarray(amps).reshape(2, 2, 2, 2).transpose([q - 1 for q in pair] + rest).reshape(4, 4)
    with mpmath.workdps(40):
        big_m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
        rho = big_m * big_m.H
        syy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        flipped = syy * rho.conjugate() * syy
        evals = mpmath.eig(rho * flipped, left=False, right=False)
        lams = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in evals), reverse=True)
        c = max(lams[0] - lams[1] - lams[2] - lams[3], 0)
        return float(min(c * c, 1))


def test_two_tangle_matches_high_precision_on_class7():
    # Class-7 pair marginals are rank-deficient, where an eigh/sqrt route
    # loses digits; the tau-matrix route keeps them.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    states = [random_slocc_state(7, sample_seed(20260823, 7, idx))[0] for idx in range(18)]
    for psi, reports in zip(states, sm_reports(states)):
        tau2 = {
            tuple(sorted((rep["focus"], j))): value
            for rep in reports
            for j, value in rep["tau2_terms"].items()
        }
        for pair, value in tau2.items():
            worst = max(worst, abs(value - _mp_two_tangle(mpmath, psi.amplitudes, pair)))
    assert worst <= 1e-12, worst


def test_schedule_monotonicity(rng):
    # larger mu3 never decreases the residual when all bounds are <= 1
    cols = tangle_columns(np.array([random_pure_state(rng, 4).amplitudes for _ in range(10)]))
    for res in zip(*(residual_columns(cols, m)[:, 0] for m in (1.5, 2.0, 3.0))):
        assert res[0] <= res[1] + 1e-12 <= res[2] + 2e-12


def test_ghzw_params_validation():
    with pytest.raises(ValueError):
        GhzwParams(4, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GhzwParams(2, 1.0, 0.0, 0.0)


def ghzw_closed_forms(p: GhzwParams) -> tuple:
    """Closed forms for alpha |0..0> + beta |W_n> + gamma |1..1>: qubit 1's
    one-tangle, a bound on each two-tangle (n >= 4), and the floor of the
    four-qubit strong-monogamy residual."""
    n, a2, b2, g2 = p.n, abs(p.alpha) ** 2, abs(p.beta) ** 2, abs(p.gamma) ** 2
    tau1 = (4.0 / n**2) * (n**2 * a2 * g2 + (n - 1) * b2 * (b2 + n * g2))
    return tau1, 4.0 * b2**2 / n**2, 4.0 * a2 * g2


def assert_ghzw_closed_forms_hold(p: GhzwParams) -> None:
    """The package's tau1 is the closed form, its tau2 is within the bound,
    and at n = 4 its residual is at least the floor."""
    tau1, tau2_bound, floor = ghzw_closed_forms(p)
    rep = tangle_report(ghzw(p), 1)
    assert rep["tau1"] == pytest.approx(tau1, abs=1e-9)
    assert rep["tau2_terms"][2] <= tau2_bound + 1e-9
    if p.n == 4:
        assert rep["sm_report"]["residual_lower"] >= floor - 1e-6


def test_ghzw_analytic_examples():
    s = 1 / np.sqrt(2)
    tau1, _, floor = ghzw_closed_forms(GhzwParams(4, s, 0.0, s))
    assert (tau1, floor) == pytest.approx((1.0, 1.0), abs=1e-12)
    tau1, tau2_bound, floor = ghzw_closed_forms(GhzwParams(4, 0.0, 1.0, 0.0))
    assert (tau1, tau2_bound) == pytest.approx((0.75, 0.25), abs=1e-12) and floor == 0.0


def test_ghzw_consistency_check_cases():
    s = 1 / np.sqrt(2)
    assert_ghzw_closed_forms_hold(GhzwParams(4, s, 0.0, s))
    assert_ghzw_closed_forms_hold(GhzwParams(4, 0.5, 0.5 + 0.5j, 0.5))


def test_ghzw_consistency_check_needs_four_qubits():
    # At n = 3 the |111> and W terms make the pair marginal coherent and
    # 4 |beta|^4 / n^2 is not a bound on its two-tangle.
    coeffs = (0.6, 0.48 + 0.36j, np.sqrt(0.28))
    p3 = GhzwParams(3, *coeffs)
    assert tangle_report(ghzw(p3), 1)["tau2_terms"][2] > ghzw_closed_forms(p3)[1]
    assert_ghzw_closed_forms_hold(GhzwParams(4, *coeffs))


def test_ghzw_consistency_random_sweep(rng):
    for _ in range(100):
        mags = rng.dirichlet(np.ones(3))
        phases = np.exp(2j * np.pi * rng.uniform(size=3))
        a, b, g = np.sqrt(mags) * phases
        assert_ghzw_closed_forms_hold(GhzwParams(4, a, b, g))
