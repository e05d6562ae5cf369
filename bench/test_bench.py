"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs the checkout's sources on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """The named workload at a size that finishes in well under a second.

    campaign-w2 keeps more states than the Pool's chunk of 32 tasks, so
    both workers take part.
    """
    return {
        "campaign": lambda: workloads.Campaign(samples_per_class=2),
        "campaign-w2": lambda: workloads.Campaign(samples_per_class=5, workers=2),
        "sweep": lambda: workloads.Sweep(step=0.5),
        "table1": lambda: workloads.Table1(points=3),
    }[name]()


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=trace, out=tmp_path, setup_s=1.0)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * tiny(name).states_per_round
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.select(declared, result["metrics"])
    assert list(metrics) == [d["name"] for d in declared]
    assert all(isinstance(m["value"], float) for m in metrics.values())
    if trace:
        assert metrics["trace.self_coverage"]["value"] > 1.0 - run.MIN_TRACE_SLACK


def test_three_tangle_bound_has_largest_self_time_on_campaign(tmp_path):
    m = run.measure(tiny("campaign"), seed=3, seconds=0, trace=True, out=tmp_path)["metrics"]
    self_times = {k: v for k, v in m.items() if k.endswith(".self_us_per_state")}
    assert max(self_times, key=self_times.get) == "tangles.three_tangle_upper.self_us_per_state"
    assert m["harness.self_s"] > 0.0


def test_table1_calls_no_one_or_two_tangle(tmp_path):
    result = run.measure(tiny("table1"), seed=3, seconds=0, trace=True, out=tmp_path)
    m = result["metrics"]
    assert m["tangles.three_tangle_upper.calls_per_state"] == 4
    assert "tangles.one_tangle.calls_per_state" not in m
    assert "tangles.two_tangle.calls_per_state" not in m


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        w = workloads.make(name)
        assert w.inputs(5, 2) == w.inputs(5, 2)
        assert w.inputs(5, 2) != w.inputs(6, 2)
    assert workloads.make("campaign").inputs(5, 0) == workloads.make("campaign-w2").inputs(5, 0)


def _rewrite(path: Path, index: int, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[index][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "name, suffix, column, value",
    [
        ("campaign", ".csv", "tau1", "1.5"),
        ("campaign", ".csv", "method_12", "bogus"),
        ("campaign", ".csv", "residual_lower", "-0.001"),
        ("campaign", ".csv", "tau2_1", "0.9"),
        ("sweep", "-c4.csv", "residual_f2", "-1e-6"),
        ("table1", ".csv", "violation", "1"),
        ("table1", ".csv", "rdl_value", "nan"),
    ],
)
def test_planted_bad_row_is_counted(tmp_path, name, suffix, column, value):
    w = tiny(name)
    inputs = w.inputs(3, 0)
    stem = tmp_path / "r0"
    rc = w.run(inputs, stem)
    assert w.check(inputs, stem, rc).failed == 0
    _rewrite(Path(f"{stem}{suffix}"), 1, column, value)
    outcome = w.check(inputs, stem, rc)
    assert outcome.failed == 1


def test_failed_command_fails_every_state(tmp_path):
    w = tiny("table1")
    inputs = w.inputs(3, 0)
    w.run(inputs, tmp_path / "r0")
    exited_3 = run.Round(0, inputs, rc=3, seconds=1.0, traced=False, ref_seconds=1.0)
    attempted, failed, problems = run.check_rounds(w, 3, [exited_3], tmp_path)
    assert failed == attempted == w.states_per_round
    assert problems == ["r0: exit code 3"]


def test_missing_state_is_counted(tmp_path):
    w = tiny("campaign")
    inputs = w.inputs(3, 0)
    stem = tmp_path / "r0"
    rc = w.run(inputs, stem)
    lines = Path(f"{stem}.csv").read_text().splitlines(keepends=True)
    Path(f"{stem}.csv").write_text("".join(lines[:-4]))
    assert w.check(inputs, stem, rc).failed == 1


def test_worker_output_must_match_one_worker(tmp_path):
    w = tiny("campaign-w2")
    w.run(w.inputs(3, 0), tmp_path / "r0")
    assert w.final_check(3, tmp_path) == []
    _rewrite(tmp_path / "r0.csv", 0, "tau1", "0.5")
    assert w.final_check(3, tmp_path) == ["r0.csv differs from the one-worker output"]


def test_setup_probes(tmp_path):
    assert 0.0 < run.setup_seconds("sweep", 3, tmp_path) < run.PROBE_TIMEOUT_S


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
