"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The full-scale Monte
Carlo tier (10^4 samples per class) is gated behind QTANGLE_FULL=1; the
always-on smoke tier covers the same pipeline at 100 samples per class.
"""

import os
import time
from itertools import permutations

import numpy as np
import pytest

from conftest import random_pure_state, random_unitary2
from oracle import convex_roof_tau3
from qtangle import (
    GhzwParams,
    PureState,
    ckw_residual,
    residual_three_tangle,
    sm_report_all_foci,
    tangle_columns,
    three_tangle_pure,
)
from qtangle.harness import CampaignConfig, run_campaign, sweep_family, table1_check, tangle_report
from qtangle.states import ghz, ghzw, random_slocc_state, sample_seed
from qtangle.tangles import TRIPLES
from reference import local_image, partial_trace, trace_norm

FULL = os.environ.get("QTANGLE_FULL") == "1"


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_ghz_saturation():
    t0 = time.monotonic()
    worst = 0.0
    for focus in range(1, 5):
        rep = tangle_report(ghz(4), focus)
        worst = max(
            worst,
            abs(rep["tau1"] - 1.0),
            abs(rep["sm_report"]["residual_lower"] - 1.0),
        )
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (GHZ saturation)",
        worst < 1e-9 and elapsed < 1.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_ghzw_family_grid():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    axis = np.linspace(0.0, 1.0, 20)
    worst = np.inf
    count = 0
    for u in axis:
        for v in axis:
            for x in axis:
                norm = np.sqrt(u * u + v * v + x * x)
                if norm < 1e-12:
                    continue
                mags = np.array([u, v, x]) / norm
                a, b, g = mags * np.exp(2j * np.pi * rng.uniform(size=3))
                floor = 4.0 * abs(a) ** 2 * abs(g) ** 2
                psi = ghzw(GhzwParams(4, a, b, g))
                for rep in sm_report_all_foci(psi):
                    worst = min(worst, rep.residual_lower - floor)
                count += 4
    elapsed = time.monotonic() - t0
    report(
        "criterion 2 (GHZ/W analytic family)",
        worst >= -1e-6 and elapsed < 120.0,
        f"{count} checks, min(residual - floor) {worst:.2e}, {elapsed:.0f}s",
    )


def _campaign_states(samples, seed):
    for cls in range(1, 9):
        for idx in range(samples):
            yield random_slocc_state(cls, sample_seed(seed, cls, idx))[0]


def test_criterion_3_smoke_campaign(tmp_path):
    t0 = time.monotonic()
    cfg = CampaignConfig(samples_per_class=100, master_seed=20260823)
    summary = run_campaign(cfg, tmp_path / "smoke.csv")
    elapsed = time.monotonic() - t0
    report(
        "criterion 3 (Monte Carlo, smoke tier 100/class)",
        summary.total_points == 3200
        and summary.violation_count == 0
        and summary.error_count == 0
        and elapsed < 20.0,
        f"min residual {summary.min_residual:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.skipif(not FULL, reason="set QTANGLE_FULL=1 for the desk-scale tier")
def test_criterion_3_desk_scale_campaign(tmp_path):
    t0 = time.monotonic()
    cfg = CampaignConfig(samples_per_class=10000, master_seed=20260823)
    summary = run_campaign(cfg, tmp_path / "full.csv")
    elapsed = time.monotonic() - t0
    report(
        "criterion 3 (Monte Carlo, desk scale 10^4/class)",
        summary.total_points == 320000
        and summary.violation_count == 0
        and summary.error_count == 0
        and elapsed < 1800.0,
        f"min residual {summary.min_residual:.2e}, {elapsed:.0f}s",
    )


def test_criterion_4_ckw_theorem():
    samples = 10000 if FULL else 100
    worst = np.inf
    for psi in _campaign_states(samples, 20260823):
        for focus in range(1, 5):
            worst = min(worst, ckw_residual(psi, focus))
    report(
        "criterion 4 (CKW theorem on campaign states)",
        worst >= -1e-9,
        f"min CKW residual {worst:.2e} over {samples}/class",
    )


def test_criterion_5_focus_independence():
    rng = np.random.default_rng(5)
    worst_spread = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        psi = random_pure_state(rng, 3)
        vals = [residual_three_tangle(psi, f) for f in (1, 2, 3)]
        worst_spread = max(worst_spread, max(vals) - min(vals))
        worst_gap = max(worst_gap, abs(vals[0] - three_tangle_pure(psi)))
    report(
        "criterion 5 (focus independence, 3 qubits)",
        worst_spread < 1e-9 and worst_gap < 1e-9,
        f"max spread {worst_spread:.2e}, max gap to closed form {worst_gap:.2e}",
    )


def test_criterion_6_rdl_soundness():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    states = [PureState.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
              for _ in range(100)]
    bounds = tangle_columns(np.array([psi.amplitudes for psi in states])).tau3.value
    assert TRIPLES[0] == (1, 2, 3)
    worst = np.inf
    for i, psi in enumerate(states):
        oracle = convex_roof_tau3(partial_trace(psi, (1, 2, 3)), restarts=32, seed=i)
        worst = min(worst, bounds[i, 0] - oracle)
    elapsed = time.monotonic() - t0
    report(
        "criterion 6 (RDL bound vs convex-roof oracle)",
        worst >= -1e-6 and elapsed < 600.0,
        f"min(bound - oracle) {worst:.2e}, {elapsed:.0f}s",
    )


def test_criterion_7_table1_zero_rows():
    entries = table1_check()
    zeros = [e for e in entries if e.declared_zero]
    bad = [e for e in zeros if e.rdl_value >= 1e-6]
    report(
        "criterion 7 (normal-form declared-zero rows)",
        len(zeros) > 0 and not bad,
        f"{len(zeros)} declared-zero marginals, {len(bad)} above 1e-6",
    )


def test_criterion_8_family_sweeps():
    grid = np.arange(0.0, 2.0001, 0.01)
    worst = np.inf
    for cls in (2, 3, 4, 5, 6):
        result = sweep_family(cls, grid)
        assert not result.violations, f"class {cls}: {result.violations[:3]}"
        worst = min(worst, min(min(r[1:]) for r in result.rows))
    report(
        "criterion 8 (one-parameter family sweeps)",
        worst >= -1e-7,
        f"classes 2-6, a in [0,2] step 0.01, min residual {worst:.2e}",
    )


def test_criterion_9_worker_determinism(tmp_path):
    base = dict(samples_per_class=100, master_seed=20260823)
    run_campaign(CampaignConfig(workers=1, **base), tmp_path / "w1.csv")
    run_campaign(CampaignConfig(workers=4, **base), tmp_path / "w4.csv")
    same = (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()
    report("criterion 9 (worker-count determinism)", same, "byte-identical CSVs")


def test_criterion_10_property_digest():
    # the per-module suites carry the full property coverage; this digest
    # re-runs one representative of each named family
    rng = np.random.default_rng(10)
    ok = True
    notes = []

    psi3 = random_pure_state(rng, 3)
    rot = local_image(psi3, [random_unitary2(rng) for _ in range(3)])
    ok &= abs(three_tangle_pure(rot) - three_tangle_pure(psi3)) < 1e-9
    notes.append("LU invariance")

    t = psi3.amplitudes.reshape(2, 2, 2)
    for perm in permutations(range(3)):
        permuted = PureState.from_amplitudes(np.transpose(t, perm).ravel())
        ok &= abs(three_tangle_pure(permuted) - three_tangle_pure(psi3)) < 1e-10
    notes.append("permutation invariance")

    psi4 = random_pure_state(rng, 4)
    ev_a = np.linalg.eigvalsh(partial_trace(psi4, (1,)))
    ev_b = np.linalg.eigvalsh(partial_trace(psi4, (2, 3, 4)))
    ok &= np.allclose(np.sort(ev_a[ev_a > 1e-10]), np.sort(ev_b[ev_b > 1e-10]), atol=1e-10)
    notes.append("Schmidt duality")

    h = rng.normal(size=(4, 4))
    h = h + h.T
    ok &= abs(trace_norm(-3.0 * h) - 3.0 * trace_norm(h)) < 1e-10
    notes.append("trace-norm homogeneity")

    for rep in sm_report_all_foci(psi4):
        recomputed = (
            rep.tau1
            - sum(rep.tau2_terms.values())
            - sum(b.value ** rep.mu3 for b in rep.tau3_bounds.values())
        )
        ok &= abs(rep.residual_lower - recomputed) < 1e-12
    notes.append("SmReport self-consistency")

    report("criterion 10 (property digest)", bool(ok), "; ".join(notes))
