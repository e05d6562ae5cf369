import csv
import json
import multiprocessing
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qtangle.harness as harness
from conftest import first_seed_word, singular_streams
from qtangle.cli import main
from qtangle.harness import (
    CampaignConfig,
    run_campaign,
    sweep_family,
    table1_check,
    tangle_report,
)
from qtangle.monogamy import ckw_residual, sm_report_all_foci
from qtangle.states import NormalFormParams, ghz, random_slocc_state, sample_seed, w
from reference import local_image, write_state


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
    real = harness.draw_samples

    def sampler(cls, master_seed, indices):
        if cls in bad_classes:
            raise RuntimeError(f"sampler broke on class {cls}")
        return real(cls, master_seed, indices)

    return sampler


def _strict_json(text):
    """json.loads that refuses the NaN/Infinity extensions it accepts by default."""

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_campaign_records_failed_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "draw_samples", _failing_sampler({2}))
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
    monkeypatch.setattr(harness, "draw_samples", _failing_sampler(set(range(1, 9))))
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


def test_campaign_pool_sized_to_its_chunks(tmp_path, monkeypatch):
    sizes = []

    class SequentialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "Pool", SequentialPool)
    chunk = harness.CHUNK_SIZE
    run_campaign(CampaignConfig(classes=(1,), samples_per_class=chunk, workers=8), tmp_path / "a.csv")
    assert sizes == []  # one chunk: no pool
    for workers in (8, 2, 1):
        cfg = CampaignConfig(classes=(1, 2, 3), samples_per_class=chunk + 1, workers=workers)
        run_campaign(cfg, tmp_path / f"w{workers}.csv")
    assert sizes == [6, 2]  # three classes of two chunks each
    assert (tmp_path / "w8.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


def test_campaign_deterministic_across_workers(tmp_path):
    cfg1 = CampaignConfig(samples_per_class=5, master_seed=3, workers=1)
    cfg4 = CampaignConfig(samples_per_class=5, master_seed=3, workers=4)
    run_campaign(cfg1, tmp_path / "w1.csv")
    run_campaign(cfg4, tmp_path / "w4.csv")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()


def _reference_rows(cfg):
    """The campaign's CSV lines built one sample at a time from the one-state
    views random_slocc_state and sm_report_all_foci."""
    lines = [",".join(harness.CSV_FIELDS)]
    for cls in sorted(cfg.classes):
        for idx in range(cfg.samples_per_class):
            psi, _ = random_slocc_state(cls, sample_seed(cfg.master_seed, cls, idx))
            for rep in sm_report_all_foci(psi):
                partners = sorted(rep.tau2_terms)
                bounds = [rep.tau3_bounds[pair] for pair in sorted(rep.tau3_bounds)]
                lines.append(",".join([
                    str(cls), str(idx), f"{cfg.master_seed}:{cls}:{idx}", str(rep.focus),
                    "-".join(map(str, partners)), repr(rep.tau1),
                    *(repr(rep.tau2_terms[p]) for p in partners),
                    *(repr(b.value) for b in bounds), *(b.method for b in bounds),
                    repr(rep.residual_lower),
                ]))  # fmt: skip
    return lines


def test_campaign_csv_text_is_what_the_csv_writer_writes(tmp_path, monkeypatch):
    # The campaign writes its rows as text, not through csv.writer: no field
    # may need quoting, and the parsed rows written through the package's one
    # CSV dialect give the same bytes. Sample 3 fails, so a chunk is written
    # in parts.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 4)
    monkeypatch.setattr(harness, "draw_samples", _failing_at(3, harness.draw_samples))
    cfg = CampaignConfig(classes=(2, 7), samples_per_class=6, master_seed=2**64 + 3)
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert summary.error_count == 2 and summary.total_points == 2 * 5 * 4
    with open(tmp_path / "v.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == harness.CSV_FIELDS and len(rows) == summary.total_points
    for row in rows:
        assert len(row) == len(header)
        assert not any(c in field for field in row for c in ',"\r\n'), row
    with harness._csv_file(tmp_path / "again.csv", header) as (_, writer):
        writer.writerows(rows)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()


def test_campaign_rows_do_not_depend_on_chunks_or_workers(tmp_path, monkeypatch):
    # 70 samples per class: full chunks and one partial chunk per class.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 16)
    assert 70 % harness.CHUNK_SIZE
    base = dict(samples_per_class=70, master_seed=20260824)
    for workers in (1, 2, 4):
        run_campaign(CampaignConfig(workers=workers, **base), tmp_path / f"w{workers}.csv")
    got = (tmp_path / "w1.csv").read_text().splitlines()
    want = _reference_rows(CampaignConfig(**base))
    assert len(got) == len(want) == 1 + 8 * 70 * 4
    first_bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first_bad is None, (got[first_bad], want[first_bad])
    for workers in (2, 4):
        same = (tmp_path / f"w{workers}.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()
        assert same, f"{workers} workers wrote other bytes than one"


def test_campaign_min_residual_at_names_its_row(tmp_path, monkeypatch):
    # Chunks of 5 among 23 samples of 8 classes: the minimum can sit in any
    # chunk. At this seed it is class 4, sample 17 (the fourth chunk's third
    # sample), focus 3.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 5)
    for workers in (1, 2):
        cfg = CampaignConfig(samples_per_class=23, master_seed=20260827, workers=workers)
        summary = run_campaign(cfg, tmp_path / f"w{workers}.csv")
        rows = read_rows(tmp_path / f"w{workers}.csv")
        row = next(r for r in rows if float(r["residual_lower"]) == summary.min_residual)
        assert summary.min_residual_at == {
            "class": int(row["class"]),
            "sample_index": int(row["sample_index"]),
            "sub_seed": row["sub_seed"],
            "focus": int(row["focus"]),
        }


def test_campaign_summary_counts_bound_methods(tmp_path):
    cfg = CampaignConfig(samples_per_class=12, master_seed=4)
    summary = run_campaign(cfg, tmp_path / "out.csv")
    rows = read_rows(tmp_path / "out.csv")
    for cls, entry in summary.per_class.items():
        counts = dict.fromkeys(entry["methods"], 0)
        for row in rows:
            if row["class"] == cls:
                for label in ("12", "13", "23"):
                    counts[row[f"method_{label}"]] += 1
        # Each triple of a state appears in the rows of its three foci.
        assert counts == {m: 3 * n for m, n in entry["methods"].items()}
        assert sum(entry["methods"].values()) == 4 * cfg.samples_per_class
    assert list(summary.per_class["1"]["methods"]) == [
        "exact-pure", "simplex-zero", "pi-coincidence", "rdl-line"
    ]


def _failing_at(index, real):
    def sampler(cls, master_seed, indices):
        if index in indices:
            raise RuntimeError(f"sampler broke at index {index}")
        return real(cls, master_seed, indices)

    return sampler


def test_campaign_isolates_a_failing_sample_in_a_chunk(tmp_path, monkeypatch):
    cfg = CampaignConfig(classes=(3,), samples_per_class=8, master_seed=11)
    run_campaign(cfg, tmp_path / "all.csv")
    monkeypatch.setattr(harness, "draw_samples", _failing_at(5, harness.draw_samples))
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert summary.errors == [
        {
            "class": 3,
            "sample_index": 5,
            "sub_seed": "11:3:5",
            "type": "RuntimeError",
            "message": "sampler broke at index 5",
        }
    ]
    expected = [r for r in read_rows(tmp_path / "all.csv") if r["sample_index"] != "5"]
    assert read_rows(tmp_path / "v.csv") == expected
    assert summary.total_points == len(expected) == 7 * 4


def test_campaign_isolates_a_sample_the_engine_rejects(tmp_path, monkeypatch):
    cfg = CampaignConfig(classes=(2,), samples_per_class=6, master_seed=9)
    run_campaign(cfg, tmp_path / "all.csv")
    bad, _ = random_slocc_state(2, sample_seed(9, 2, 4))
    real = harness.tangle_columns

    def engine(amps):
        if any(np.array_equal(v, bad.amplitudes) for v in amps):
            raise FloatingPointError("engine broke")
        return real(amps)

    monkeypatch.setattr(harness, "tangle_columns", engine)
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert [(e["sample_index"], e["type"], e["message"]) for e in summary.errors] == [
        (4, "FloatingPointError", "engine broke")
    ]
    expected = [r for r in read_rows(tmp_path / "all.csv") if r["sample_index"] != "4"]
    assert read_rows(tmp_path / "v.csv") == expected


def test_campaign_records_a_sample_whose_operators_stay_singular(tmp_path, monkeypatch):
    # Sample 5's stream draws only singular operators and sample 2's first
    # operator is singular once: the chunk's stacked preparation fails, each
    # sample is prepared alone, and only sample 5 is recorded, with the error
    # of the sequential sampler. Sample 2's retried operators do not change.
    cfg = CampaignConfig(classes=(3,), samples_per_class=8, master_seed=11)
    index_of = {first_seed_word(sample_seed(11, 3, i)): i for i in range(8)}
    zeros = {2: 8}
    singular_streams(monkeypatch, lambda seed: zeros.get(index_of[first_seed_word(seed)], 0))
    run_campaign(cfg, tmp_path / "retry.csv")
    zeros[5] = 10**6
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert summary.errors == [
        {
            "class": 3,
            "sample_index": 5,
            "sub_seed": "11:3:5",
            "type": "RuntimeError",
            "message": "rejected 100 singular draws in a row; RNG looks broken",
        }
    ]
    expected = [r for r in read_rows(tmp_path / "retry.csv") if r["sample_index"] != "5"]
    assert read_rows(tmp_path / "v.csv") == expected


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(classes=(1, 9))
    with pytest.raises(ValueError):
        CampaignConfig(samples_per_class=0)
    with pytest.raises(ValueError, match="master_seed"):
        CampaignConfig(master_seed=-1)
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
    from qtangle import tangle_columns
    from qtangle.states import normal_form

    switch = 2 ** (2 / 3)
    amps = [normal_form(6, NormalFormParams(a=a)).amplitudes for a in (switch - 0.2, switch + 0.01)]
    below, above = tangle_columns(np.array(amps)).tau3.value[:, 3]  # triple (2, 3, 4)
    assert below > 1e-4
    assert above < 1e-6


def test_sweep_degenerate_flagging():
    # A negative a breaks the nonnegative real part of the family's
    # parameters: the point is flagged and the others are evaluated.
    result = sweep_family(5, [0.25, -0.5, 0.75])
    assert result.flagged == [-0.5]
    assert len(result.rows) == 2


def test_sweep_unknown_class():
    with pytest.raises(ValueError):
        sweep_family(7, [0.1])


def test_sweep_and_table1_take_empty_grids():
    # No grid point, or none where the family is defined: zero chunks.
    for grid in ([], [-0.5]):
        result = sweep_family(5, grid)
        assert (result.rows, result.flagged, result.violations) == ([], grid, [])
    entries = table1_check(grid=[])
    assert len(entries) == 12
    assert {(e.slocc_class, e.param_value) for e in entries} == {(7, None), (8, None), (9, None)}


def test_sweep_and_table1_do_not_depend_on_chunks(monkeypatch):
    grid = np.concatenate([[-0.3, -0.1], np.linspace(0.0, 2.0, 40)])
    sweeps = [sweep_family(cls, grid, threshold=0.02) for cls in (2, 5, 6)]
    assert all(len(s.flagged) == 2 for s in sweeps) and any(s.violations for s in sweeps)
    entries = table1_check()
    # Chunks of 7: several per grid with a partial last one, and table1
    # chunks that straddle classes.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 7)
    assert repr([sweep_family(cls, grid, threshold=0.02) for cls in (2, 5, 6)]) == repr(sweeps)
    assert repr(table1_check()) == repr(entries)


def test_sweep_memory_does_not_grow_with_the_grid():
    # Measured traced peak at 2,000 points: 3.9 MB bounded chunk by chunk,
    # 16.5 MB when the whole grid went through one engine call.
    grid = np.linspace(0.0, 2.0, 2000)
    sweep_family(5, grid[:1])  # lazy set-up and caches
    tracemalloc.start()
    try:
        sweep_family(5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


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
    psi = local_image(w(3), [rng.normal(size=(2, 2)) for _ in range(3)])
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
    write_state(w(3), path)
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
    write_state(ghz(4), path)
    assert main(["tangle", str(path), "--focus", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sm_report"]["residual_lower"] == pytest.approx(1.0, abs=1e-9)


def test_cli_tangle_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "amplitudes": [[1, 0]]}')
    assert main(["tangle", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["tangle", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_tangle_rejects_qubit_count_out_of_range(tmp_path, capsys):
    # The declared n is checked before 2**n is formed.
    path = tmp_path / "big.json"
    for n in (10**6, -1):
        path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0]]}))
        assert main(["tangle", str(path)]) == 2
        assert "outside supported range 2..8" in capsys.readouterr().err


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
    # A step that does not divide the span stops at the last point below --a-max.
    grid = ["--a-min", "0", "--a-max", "1", "--step", "0.6"]
    assert main(["sweep", "--class", "5", *grid, "--out", str(out)]) == 0
    assert [row["a"] for row in read_rows(out)] == ["0.0", "0.6"]
    # One that divides it up to the roundoff of the endpoints keeps the last point.
    grid = ["--a-min", "3027.3", "--a-max", "3031.2", "--step", "0.1"]
    assert main(["sweep", "--class", "5", *grid, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 40 and rows[-1]["a"] == "3031.2"  # clamped, not 3031.2000000000003
    # 0.1 + 0.1 * 6 is 0.7000000000000001: clamped to --a-max, and the grid keeps its 7 points.
    grid = ["--a-min", "0.1", "--a-max", "0.7", "--step", "0.1"]
    assert main(["sweep", "--class", "5", *grid, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 7 and rows[-1]["a"] == "0.7"


def test_cli_sweep_flags_a_negative_grid_point(capsys):
    code = main(
        ["sweep", "--class", "2", "--a-min", "-0.1", "--a-max", "0.1", "--step", "0.1", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["flagged"] == [-0.1]
    assert [row[0] for row in out["rows"]] == [0.0, 0.1]


def test_cli_flags_or_rejects_a_state_whose_norm_overflows(tmp_path, capsys):
    # Squares of 1e200 overflow: the norm is inf, and no state is normalized by it.
    code = main(["sweep", "--class", "5", "--a-min", "1e200", "--a-max", "1e200", "--step", "1",
                 "--json"])  # fmt: skip
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["flagged"] == [1e200]
    path = tmp_path / "big.json"  # 1e200 GHZ3
    amps = [[1e200, 0.0]] + [[0.0, 0.0]] * 6 + [[1e200, 0.0]]
    path.write_text(json.dumps({"n": 3, "amplitudes": amps}))
    assert main(["tangle", str(path)]) == 2
    assert capsys.readouterr().err == "error: amplitude vector's squared norm overflows\n"


@pytest.mark.parametrize(
    "grid",
    [
        ["--step", "0"],
        ["--step", "-0.01"],
        ["--step", "nan"],
        ["--a-min", "1", "--a-max", "0.5"],
        ["--a-max", "0.1", "--step", "5e-324"],  # too many steps to count
        ["--a-max", "2", "--step", "1e-14"],  # 2e14 points: more than MAX_SWEEP_POINTS
        ["--a-max", "1", "--step", "1e-5"],  # 100,001 points: one more than the cap
    ],
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
    for psi in (ghz(2), w(3), ghz(4)):
        path = tmp_path / f"state{psi.n_qubits}.json"
        write_state(psi, path)
        assert main(["tangle", str(path), "--mu3", mu3]) == 2
        with pytest.raises(ValueError, match="mu3"):
            tangle_report(psi, 1, mu3=float(mu3))


def test_cli_verify_rejects_negative_seed(tmp_path, capsys):
    out, summary = tmp_path / "v.csv", tmp_path / "v.json"
    args = ["verify", "--classes", "1", "--samples", "2", "--seed", "-1", "--out", str(out)]
    assert main([*args, "--summary", str(summary)]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


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
    # every option takes a negative value in exponent form, not only --threshold
    capsys.readouterr()
    grid = ["--a-min", "-1e-3", "--a-max", "0.01", "--step", "0.01", "--json"]
    assert main(["sweep", "--class", "5", *grid]) == 0
    assert json.loads(capsys.readouterr().out)["flagged"] == [-0.001]
    # the value reaches the check: an infinite or negative one is rejected, not misparsed
    assert main([*sweep, "--threshold", "-inf"]) == 2
    assert "threshold must be finite" in capsys.readouterr().err
    assert main([*sweep, "--mu3", "-1e-3"]) == 2
    assert "mu3 must be positive" in capsys.readouterr().err


def test_cli_tangle_prints_a_norm_warning_as_one_line(tmp_path, capsys):
    path = tmp_path / "norm2.json"
    path.write_text(json.dumps({"n": 4, "amplitudes": [[1, 0]] + [[0, 0]] * 14 + [[1, 0]]}))
    assert main(["tangle", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: input state norm 1.41421356 deviates from 1; normalizing\n"
    assert captured.out.startswith("n = 4, focus = 1\n")


def test_cli_table1(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 252
    assert all(row["violation"] == "0" for row in rows)


def test_cli_table1_json_matches_its_csv(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["table1", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)

    def as_csv(key, value):
        if value is None:
            return ""
        if key == "triple":
            return "|".join(map(str, value))
        if isinstance(value, bool):
            return str(int(value))
        return repr(value) if key == "rdl_value" else str(value)

    assert len(entries) == len(rows) == 252
    for entry, row in zip(entries, rows):
        assert list(entry) == header
        assert [as_csv(key, value) for key, value in entry.items()] == row


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--classes", "1", "--samples", "2", "--out", "{missing}/v.csv"],
        ["verify", "--classes", "1-2", "--samples", "2", "--workers", "2",
         "--out", "{missing}/v.csv"],
        ["verify", "--classes", "1", "--samples", "2", "--out", "{tmp}/v.csv",
         "--summary", "{missing}/v.json"],
        ["sweep", "--class", "5", "--a-max", "0.1", "--out", "{missing}/s.csv"],
        ["table1", "--out", "{missing}/t1.csv"],
    ],
)  # fmt: skip
def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert multiprocessing.active_children() == []  # no worker left behind


def test_cli_usage_error():
    assert main(["bogus"]) == 2


def test_import_loads_no_scipy():
    # scipy is a test-only reference; the package and its CLI are numpy-only.
    src = str(Path(harness.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qtangle, qtangle.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
