import csv
import json

import numpy as np
import pytest

import qtangle.harness as harness
from qtangle.cli import main
from qtangle.harness import (
    CampaignConfig,
    run_campaign,
    sweep_family,
    table1_check,
    tangle_report,
)
from qtangle.monogamy import ckw_residual, sm_report_all_foci
from qtangle.qstate import apply_local_operators, state_to_json
from qtangle.states import NormalFormParams, ghz, random_slocc_state, sample_seed, w


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_campaign_smoke(tmp_path):
    cfg = CampaignConfig(samples_per_class=10, master_seed=42)
    summary = run_campaign(cfg, tmp_path / "out.csv", summary_path=tmp_path / "out.json")
    rows = read_rows(tmp_path / "out.csv")
    assert len(rows) == 320
    assert summary.total_points == 320
    assert summary.violation_count == 0
    assert summary.error_count == 0
    loaded = json.loads((tmp_path / "out.json").read_text())
    assert loaded["min_residual"] == summary.min_residual


def _failing_sampler(bad_classes):
    real = harness.random_slocc_state

    def sampler(cls, seed):
        if cls in bad_classes:
            raise RuntimeError(f"sampler broke on class {cls}")
        return real(cls, seed)

    return sampler


def _strict_json(text):
    """json.loads that refuses the NaN/Infinity extensions it accepts by default."""

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_campaign_records_failed_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "random_slocc_state", _failing_sampler({2}))
    out, summary_path = tmp_path / "v.csv", tmp_path / "v.json"
    code = main(
        ["verify", "--classes", "1-3", "--samples", "4", "--seed", "11",
         "--out", str(out), "--summary", str(summary_path)]
    )
    assert code == 3
    summary = _strict_json(summary_path.read_text())
    rows = read_rows(out)
    assert len(rows) == summary["total_points"] == 2 * 4 * 4
    assert {int(r["class"]) for r in rows} == {1, 3}
    assert summary["error_count"] == 4
    assert summary["errors"] == [
        {
            "class": 2,
            "sample_index": i,
            "sub_seed": f"11:2:{i}",
            "type": "RuntimeError",
            "message": "sampler broke on class 2",
        }
        for i in range(4)
    ]
    assert summary["min_residual"] == min(float(r["residual_lower"]) for r in rows)


def test_campaign_all_errors_summary_is_valid_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "random_slocc_state", _failing_sampler(set(range(1, 9))))
    out, summary_path = tmp_path / "v.csv", tmp_path / "v.json"
    code = main(
        ["verify", "--classes", "1,2", "--samples", "3", "--seed", "5",
         "--out", str(out), "--summary", str(summary_path)]
    )
    assert code == 3
    summary = _strict_json(summary_path.read_text())
    assert summary["total_points"] == 0
    assert summary["error_count"] == len(summary["errors"]) == 6
    assert summary["min_residual"] is None
    assert read_rows(out) == []
    printed = capsys.readouterr().out
    assert "points tested: 0" in printed and "min residual" in printed


def test_campaign_rows_self_consistent(tmp_path):
    cfg = CampaignConfig(classes=(1, 4), samples_per_class=10, master_seed=7)
    summary = run_campaign(cfg, tmp_path / "out.csv")
    rows = read_rows(tmp_path / "out.csv")
    residuals = []
    for row in rows:
        tau1 = float(row["tau1"])
        assert 0.0 <= tau1 <= 1.0
        recomputed = (
            tau1
            - sum(float(row[f"tau2_{i}"]) for i in (1, 2, 3))
            - sum(float(row[f"tau3_{p}"]) ** 1.5 for p in ("12", "13", "23"))
        )
        assert abs(float(row["residual_lower"]) - recomputed) < 1e-12
        residuals.append(float(row["residual_lower"]))
        focus = int(row["focus"])
        partners = [int(p) for p in row["partners"].split("-")]
        assert partners == [q for q in (1, 2, 3, 4) if q != focus]
    assert summary.min_residual == pytest.approx(min(residuals), abs=0)


def test_campaign_deterministic_across_workers(tmp_path):
    cfg1 = CampaignConfig(samples_per_class=5, master_seed=3, workers=1)
    cfg4 = CampaignConfig(samples_per_class=5, master_seed=3, workers=4)
    run_campaign(cfg1, tmp_path / "w1.csv")
    run_campaign(cfg4, tmp_path / "w4.csv")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(classes=(1, 9))
    with pytest.raises(ValueError):
        CampaignConfig(samples_per_class=0)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="mu3"):
            CampaignConfig(mu3=bad)
    with pytest.raises(ValueError, match="empty"):
        CampaignConfig(classes=())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="threshold"):
            CampaignConfig(negativity_threshold=bad)
        with pytest.raises(ValueError, match="threshold"):
            sweep_family(5, [0.5], threshold=bad)


def test_sweep_class5_nonnegative(tmp_path):
    result = sweep_family(5, np.arange(0.0, 2.0001, 0.05), csv_path=tmp_path / "s.csv")
    assert not result.violations
    assert not result.flagged
    with open(tmp_path / "s.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["a", "residual_f1", "residual_f2", "residual_f3", "residual_f4"]


def test_sweep_class6_bound_switch():
    # q2q3q4 marginal bound turns exactly zero once a >= 2^(2/3)
    from qtangle import partial_trace, three_tangle_upper
    from qtangle.states import normal_form

    switch = 2 ** (2 / 3)
    below = three_tangle_upper(
        partial_trace(normal_form(6, NormalFormParams(a=switch - 0.2)), (2, 3, 4))
    )
    above = three_tangle_upper(
        partial_trace(normal_form(6, NormalFormParams(a=switch + 0.01)), (2, 3, 4))
    )
    assert below.value > 1e-4
    assert above.value < 1e-6


def test_sweep_degenerate_flagging(monkeypatch):
    calls = {}
    real = harness.normal_form

    def fake(cls, params):
        if abs(params.a - 0.5) < 1e-12:
            raise ValueError("degenerate")
        return real(cls, params)

    monkeypatch.setattr(harness, "normal_form", fake)
    result = sweep_family(5, [0.25, 0.5, 0.75])
    assert result.flagged == [0.5]
    assert len(result.rows) == 2


def test_sweep_unknown_class():
    with pytest.raises(ValueError):
        sweep_family(7, [0.1])


def test_table1_check_no_zero_row_violations():
    entries = table1_check()
    assert not any(e.violation for e in entries)
    # class 9 q2q3q4 marginal is exactly a pure GHZ triple
    g9 = [e for e in entries if e.slocc_class == 9 and e.triple == (2, 3, 4)]
    assert len(g9) == 1
    assert g9[0].rdl_method == "exact-pure"
    assert g9[0].rdl_value == pytest.approx(1.0, abs=1e-9)


def test_tangle_report_levels():
    bell = tangle_report(ghz(2), 1)
    assert bell["tau2"] == pytest.approx(1.0, abs=1e-10)
    w3 = tangle_report(w(3), 1)
    assert w3["tau3"] == pytest.approx(0.0, abs=1e-10)
    assert w3["ckw_residual"] == pytest.approx(0.0, abs=1e-9)
    g4 = tangle_report(ghz(4), 1)
    assert g4["sm_report"]["residual_lower"] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        tangle_report(w(5), 1)


def test_tangle_report_terms_are_the_residuals_own():
    for cls in range(1, 9):
        for idx in range(4):
            psi, _ = random_slocc_state(cls, sample_seed(31, cls, idx))
            for rep in sm_report_all_foci(psi):
                printed = tangle_report(psi, rep.focus)
                assert printed["tau1"] == rep.tau1
                assert printed["tau2_terms"] == rep.tau2_terms
                assert printed["ckw_residual"] == rep.tau1 - sum(rep.tau2_terms.values())


# ------------------------------------------------------------------- CLI


def test_tangle_report_three_qubit_terms(rng):
    psi = apply_local_operators(w(3), [rng.normal(size=(2, 2)) for _ in range(3)])
    for focus in (1, 2, 3):
        report = tangle_report(psi, focus)
        assert list(report["tau2_terms"]) == [q for q in (1, 2, 3) if q != focus]
        assert report["ckw_residual"] == report["tau1"] - sum(report["tau2_terms"].values())
        assert report["ckw_residual"] == ckw_residual(psi, focus)


def test_tangle_report_rejects_focus_outside_range(tmp_path):
    for psi in (ghz(2), w(3)):
        for focus in (0, psi.n_qubits + 1):
            with pytest.raises(ValueError, match="focus"):
                tangle_report(psi, focus)
    path = tmp_path / "w3.json"
    state_to_json(w(3), path)
    assert main(["tangle", str(path), "--focus", "0"]) == 2


def test_cli_verify_and_exit_codes(tmp_path):
    out = tmp_path / "v.csv"
    code = main(
        ["verify", "--classes", "1,2", "--samples", "3", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert len(read_rows(out)) == 24


def test_cli_tangle(tmp_path, capsys):
    path = tmp_path / "ghz4.json"
    state_to_json(ghz(4), path)
    assert main(["tangle", str(path), "--focus", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sm_report"]["residual_lower"] == pytest.approx(1.0, abs=1e-9)


def test_cli_tangle_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "amplitudes": [[1, 0]]}')
    assert main(["tangle", str(bad)]) == 2
    assert main(["tangle", str(tmp_path / "missing.json")]) == 2


def test_cli_tangle_rejects_nan_amplitude(tmp_path, capsys):
    path = tmp_path / "nan.json"
    amps = [[0.25, 0.0]] * 16
    amps[3] = [float("nan"), 0.0]
    path.write_text(json.dumps({"n": 4, "amplitudes": amps}))
    assert main(["tangle", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--class", "6", "--a-min", "0", "--a-max", "1", "--step", "0.25",
         "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        assert len(fh.readlines()) == 6  # header + 5 grid points


@pytest.mark.parametrize(
    "grid",
    [["--step", "0"], ["--step", "-0.01"], ["--step", "nan"], ["--a-min", "1", "--a-max", "0.5"]],
)
def test_cli_sweep_rejects_bad_grid(tmp_path, capsys, grid):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--class", "5", *grid, "--out", str(out)]) == 2
    assert "sweep grid" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_single_point_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["--a-min", "0.5", "--a-max", "0.5", "--out", str(out)]
    assert main(["sweep", "--class", "5", *args]) == 0
    assert len(out.read_text().splitlines()) == 2  # header + 1 grid point


@pytest.mark.parametrize("mu3", ["0", "nan"])
def test_cli_rejects_bad_mu3(tmp_path, mu3):
    out = tmp_path / "v.csv"
    verify = ["verify", "--classes", "1", "--samples", "1", "--out", str(out)]
    assert main([*verify, "--mu3", mu3]) == 2
    assert not out.exists()
    sweep = ["sweep", "--class", "5", "--a-max", "0.1", "--step", "0.1", "--out", str(out)]
    assert main([*sweep, "--mu3", mu3]) == 2
    assert not out.exists()


@pytest.mark.parametrize("classes", ["", "8-1"])
def test_cli_verify_rejects_empty_class_set(tmp_path, capsys, classes):
    out, summary = tmp_path / "v.csv", tmp_path / "v.json"
    args = ["verify", "--classes", classes, "--samples", "1", "--out", str(out)]
    assert main([*args, "--summary", str(summary)]) == 2
    assert "classes must not be empty" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_threshold(tmp_path, capsys, threshold):
    # "--threshold=-inf": argparse reads a separate "-inf" as an option name.
    out, summary = tmp_path / "v.csv", tmp_path / "v.json"
    verify = ["verify", "--classes", "1", "--samples", "1", "--out", str(out)]
    assert main([*verify, "--summary", str(summary), f"--threshold={threshold}"]) == 2
    assert "threshold must be finite" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()
    sweep = ["sweep", "--class", "5", "--a-max", "0.1", "--step", "0.1", "--out", str(out)]
    assert main([*sweep, f"--threshold={threshold}"]) == 2
    assert "threshold must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_threshold_in_exponent_form(tmp_path, capsys):
    # argparse alone reads a separate "-1e-6" as an option name and exits 2.
    out, summary = tmp_path / "v.csv", tmp_path / "v.json"
    verify = ["verify", "--classes", "1", "--samples", "1", "--out", str(out)]
    assert main([*verify, "--threshold", "-1e-7", "--summary", str(summary)]) == 0
    assert summary.exists()
    sweep = ["sweep", "--class", "5", "--a-max", "0.1", "--step", "0.1", "--out", str(out)]
    assert main([*sweep, "--threshold", "-1e-6"]) == 0
    # the value reaches the check: an infinite one is rejected, not misparsed
    capsys.readouterr()
    assert main([*sweep, "--threshold", "-inf"]) == 2
    assert "threshold must be finite" in capsys.readouterr().err


def test_cli_table1(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 252
    assert all(row["violation"] == "0" for row in rows)


def test_cli_usage_error():
    assert main(["bogus"]) == 2
