"""The names and options the benchmark (``bench/workloads.py``) calls, with
the signatures it calls them with. The benchmark directory is kept fixed
while the package changes, so a rename here would fail every benchmark run
rather than a test."""

import contextlib
import csv
import io
import json

import numpy as np

from qtangle import cli, harness, states
from qtangle.qstate import PureState


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sampler_and_normal_form_entry_points():
    psi, ops = states.random_slocc_state(3, states.sample_seed(961, 3, 0))
    assert isinstance(psi, PureState) and psi.amplitudes.shape == (16,)
    assert ops.shape == (4, 2, 2) and np.abs(np.linalg.det(ops) - 1.0).max() <= 1e-12
    # The one-sample view is the stacked sampler's row, bit for bit.
    amps, stacked_ops = states.dress(3, states.draw_samples(3, 961, [0]))
    assert psi.amplitudes.tobytes() == amps[0].tobytes()
    assert ops.tobytes() == stacked_ops[0].tobytes()
    for cls in (2, 3, 4, 5, 6):
        psi = states.normal_form(cls, harness.SWEEP_BINDINGS[cls](0.37))
        assert isinstance(psi, PureState) and psi.amplitudes.shape == (16,)


def test_table1_entry_points(tmp_path):
    grid = [0.4, 1.3]
    entries = harness.table1_check(grid=grid)
    assert len(entries) == 4 * (6 * len(grid) + 3)
    # The benchmark swaps the name the CLI calls for a call with its own grid,
    # and runs the command many times in one process: the swap holds on every
    # call, though the parser is built once.
    saved = cli.table1_check
    assert saved is harness.table1_check
    cli.table1_check = lambda: harness.table1_check(grid=grid)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["table1", "--out", str(tmp_path / f"t{k}.csv")]) for k in range(3)]
    finally:
        cli.table1_check = saved
    assert codes == [0, 0, 0]
    for k in range(3):
        rows = _rows(tmp_path / f"t{k}.csv")
        assert len(rows) == len(entries)
    assert {"class", "param", "rdl_value", "declared_zero", "rdl_method", "violation"} <= set(rows[0])


def test_cli_options_the_benchmark_passes(tmp_path):
    stem = tmp_path / "c"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "verify", "--classes", "1-8", "--samples", "1", "--seed", "5", "--workers", "1",
            "--out", f"{stem}.csv", "--summary", f"{stem}.json",
        ])  # fmt: skip
    assert code == 0
    row = _rows(f"{stem}.csv")[0]
    assert {"class", "sample_index", "focus", "partners", "tau1", "tau2_1", "tau3_12",
            "method_12", "residual_lower"} <= set(row)  # fmt: skip
    summary = json.loads((tmp_path / "c.json").read_text())
    assert summary["total_points"] == 32 and summary["error_count"] == 0
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "sweep", "--class", "2", "--a-min", repr(0.01), "--a-max", repr(0.05),
            "--step", repr(0.02), "--out", f"{stem}-c2.csv",
        ])  # fmt: skip
    assert code == 0
    rows = _rows(f"{stem}-c2.csv")
    assert len(rows) == 3 and {"a", "residual_f1", "residual_f4"} <= set(rows[0])
