import csv
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qtangle.cli as cli
import qtangle.harness as harness
from conftest import first_seed_word, singular_streams, sm_reports
from qtangle.cli import main
from qtangle.harness import CampaignConfig, run_campaign, sweep_family, table1_check
from qtangle.monogamy import tangle_report
from qtangle.qstate import PureState
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
    assert summary["total_points"] == 320
    assert summary["violation_count"] == 0
    assert summary["error_count"] == 0
    loaded = json.loads((tmp_path / "out.json").read_text())
    assert loaded["min_residual"] == summary["min_residual"]


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
    assert summary["min_residual"] == pytest.approx(min(residuals), abs=0)


class SequentialPool:
    """A process pool that runs each task in this process as it is
    submitted, noting its size in `sizes` and each submitted function in
    `submitted`."""

    sizes: list = []
    submitted: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(fn)
        result = fn(*args)
        return SimpleNamespace(result=lambda: result)


@pytest.fixture
def sequential_pool(monkeypatch):
    """SequentialPool in place of the campaign's process pool, its records
    empty."""
    monkeypatch.setattr(SequentialPool, "sizes", [])
    monkeypatch.setattr(SequentialPool, "submitted", [])
    monkeypatch.setattr(harness.futures, "ProcessPoolExecutor", SequentialPool)
    return SequentialPool


def test_campaign_pool_sized_to_its_chunks(tmp_path, sequential_pool):
    sizes = sequential_pool.sizes
    chunk = harness.CHUNK_SIZE
    run_campaign(CampaignConfig(classes=(1,), samples_per_class=chunk, workers=8), tmp_path / "a.csv")
    assert sizes == []  # one class of one chunk: no pool
    for workers in (8, 2, 1):
        cfg = CampaignConfig(classes=(1, 2, 3), samples_per_class=chunk + 1, workers=workers)
        run_campaign(cfg, tmp_path / f"w{workers}.csv")
    # 3 * (chunk + 1) samples: three full spans and one of 3, so at most four
    # workers, this process one of them.
    assert sizes == [3, 1]
    assert (tmp_path / "w8.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


def _no_rows(task):
    """_chunk_rows with the engine stubbed out: no row, no error; top level
    so a pool can pickle it."""
    return "", [], np.empty((0, 4)), np.empty((0, 4)), np.empty((0, 4), dtype=int), []


def _campaign_peaks(tmp_path, workers, chunks):
    """The traced peak memory of campaigns of one and of `chunks` chunks per
    class, with the engine stubbed out by _no_rows."""
    peaks = []
    for samples in (harness.CHUNK_SIZE, chunks * harness.CHUNK_SIZE):
        cfg = CampaignConfig(samples_per_class=samples, workers=workers)
        tracemalloc.start()
        try:
            run_campaign(cfg, tmp_path / "out.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_campaign_memory_does_not_grow_with_samples(tmp_path, monkeypatch):
    # With the engine stubbed out, what is left is the campaign's own
    # bookkeeping: its spans must be made as they are taken, not listed.
    # Listed, the 3,200 spans of 400 chunks per class trace about 0.9 MB;
    # made one at a time, the peak moves by about 0.1 MB of numpy's own.
    monkeypatch.setattr(harness, "_chunk_rows", _no_rows)
    peaks = _campaign_peaks(tmp_path, workers=1, chunks=400)
    assert peaks[1] < peaks[0] + 300_000, peaks


def test_campaign_memory_does_not_grow_with_samples_two_workers(tmp_path, monkeypatch):
    # The same bound with a child: a span is handed out only when the
    # child's last result has been taken, so one is in flight at a time.
    # Handed out all at once, the 800 spans of 100 chunks per class trace
    # about 1.5 MB; one at a time, the peak moves by about 0.05 MB. (Each
    # round trip to the child is slow under tracemalloc, hence 100, not 400.)
    monkeypatch.setattr(harness, "_chunk_rows", _no_rows)
    peaks = _campaign_peaks(tmp_path, workers=2, chunks=100)
    assert peaks[1] < peaks[0] + 300_000, peaks


def _cpus():
    """This thread's usable CPUs, where the platform reports them."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


PINNABLE = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two usable CPUs",
)


def test_campaign_leaves_no_child_running(tmp_path, monkeypatch):
    cpus = _cpus()
    cfg = CampaignConfig(classes=(1, 2), samples_per_class=harness.CHUNK_SIZE, workers=2)
    run_campaign(cfg, tmp_path / "ok.csv")
    assert multiprocessing.active_children() == []
    assert _cpus() == cpus
    # A step in this process raises mid-run, the child's span in flight.
    calls = []
    real = harness._bin_index

    def bin_index(x, edges):
        calls.append(edges)
        if len(calls) == 2:
            raise RuntimeError("binning broke")
        return real(x, edges)

    monkeypatch.setattr(harness, "_bin_index", bin_index)
    with pytest.raises(RuntimeError, match="binning broke") as caught:
        run_campaign(cfg, tmp_path / "broken.csv")
    # The children are gone while the exception, and with it the campaign's
    # frame, is still held: their end does not wait for garbage collection.
    assert caught.traceback and multiprocessing.active_children() == []
    assert _cpus() == cpus


def _no_rows_slowly_in_children(parent, finished, task):
    """_no_rows, taking a second in every process but `parent` and leaving a
    file in `finished` once it is done there; top level so a pool can pickle
    it (with partial)."""
    if os.getpid() != parent:
        time.sleep(1.0)
        (finished / str(os.getpid())).touch()
    return _no_rows(task)


def test_campaign_lets_a_childs_span_finish_when_this_process_raises(tmp_path, monkeypatch):
    # Two spans and two workers: the child's span is in flight for a second
    # while this process raises at its first merge. The child must be let
    # finish its span, not be killed in it: a child killed while it sends
    # its result can leave the pool's teardown blocked for good.
    finished = tmp_path / "finished"
    finished.mkdir()
    monkeypatch.setattr(
        harness, "_chunk_rows", partial(_no_rows_slowly_in_children, os.getpid(), finished)
    )

    def bin_index(x, edges):
        raise RuntimeError("merge broke")

    monkeypatch.setattr(harness, "_bin_index", bin_index)
    cfg = CampaignConfig(classes=(1, 2), samples_per_class=harness.CHUNK_SIZE, workers=2)
    cpus = _cpus()
    with pytest.raises(RuntimeError, match="merge broke"):
        run_campaign(cfg, tmp_path / "v.csv")
    assert multiprocessing.active_children() == []
    assert len(list(finished.iterdir())) == 1
    assert _cpus() == cpus


@PINNABLE
def test_span_results_closed_early_restores_this_threads_cpus(monkeypatch):
    monkeypatch.setattr(harness, "_chunk_rows", _no_rows)
    cpus = os.sched_getaffinity(0)
    with closing(harness._span_results(iter([None] * 4), 2)) as results:
        next(results)
        assert os.sched_getaffinity(0) == {min(cpus)}  # pinned while the spans run
    assert os.sched_getaffinity(0) == cpus
    assert multiprocessing.active_children() == []


def _no_rows_noting_cpus(folder, task):
    """_no_rows, leaving in `folder` a file named after the span's first
    class that holds this process's id and usable CPUs; top level so a pool
    can pickle it (with partial)."""
    cls = task[0][0][0]
    (folder / str(cls)).write_text(json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))]))
    return _no_rows(task)


@PINNABLE
def test_campaign_workers_each_run_on_a_cpu_of_their_own(tmp_path, monkeypatch):
    # Two spans and two workers: the first span is evaluated here, on the
    # first usable CPU, and the second in the child, on the second. Left to
    # the kernel, a forked child can stay on its parent's CPU for good.
    monkeypatch.setattr(harness, "_chunk_rows", partial(_no_rows_noting_cpus, tmp_path))
    cpus = sorted(os.sched_getaffinity(0))
    cfg = CampaignConfig(classes=(1, 2), samples_per_class=harness.CHUNK_SIZE, workers=2)
    run_campaign(cfg, tmp_path / "v.csv")
    here, child = (json.loads((tmp_path / cls).read_text()) for cls in ("1", "2"))
    assert here == [os.getpid(), cpus[:1]]
    assert child[0] != os.getpid() and child[1] == cpus[1:2]


def test_campaign_without_sched_setaffinity_dispatches_as_before(tmp_path, monkeypatch, sequential_pool):
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: calls.append("get") or {0}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append("set"), raising=False)
    cfg = dict(classes=(1, 2), samples_per_class=harness.CHUNK_SIZE, master_seed=5)
    run_campaign(CampaignConfig(**cfg, workers=1), tmp_path / "w1.csv")
    assert calls == []  # one worker reads and sets no affinity
    monkeypatch.delattr(os, "sched_setaffinity")
    run_campaign(CampaignConfig(**cfg, workers=2), tmp_path / "w2.csv")
    assert calls == []
    assert sequential_pool.sizes == [1] and sequential_pool.submitted == [harness._chunk_rows]
    assert (tmp_path / "w2.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


def test_campaign_deterministic_across_workers(tmp_path):
    cfg1 = CampaignConfig(samples_per_class=5, master_seed=3, workers=1)
    cfg4 = CampaignConfig(samples_per_class=5, master_seed=3, workers=4)
    run_campaign(cfg1, tmp_path / "w1.csv")
    run_campaign(cfg4, tmp_path / "w4.csv")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()


def _reference_rows(cfg):
    """The campaign's CSV lines built from the one-sample view
    random_slocc_state, sample by sample, and the sm_report dicts of
    tangle --json, from one engine call on all the samples."""
    lines = [",".join(harness.CSV_FIELDS)]
    samples = [(cls, idx) for cls in sorted(cfg.classes) for idx in range(cfg.samples_per_class)]
    psis = [random_slocc_state(c, sample_seed(cfg.master_seed, c, i))[0] for c, i in samples]
    for (cls, idx), reports in zip(samples, sm_reports(psis)):
        for rep in reports:
            partners = sorted(rep["tau2_terms"])
            bounds = [rep["tau3_bounds"][pair] for pair in sorted(rep["tau3_bounds"])]
            lines.append(",".join([
                str(cls), str(idx), f"{cfg.master_seed}:{cls}:{idx}", str(rep["focus"]),
                "-".join(map(str, partners)), repr(rep["tau1"]),
                *(repr(rep["tau2_terms"][p]) for p in partners),
                *(repr(b["value"]) for b in bounds), *(b["method"] for b in bounds),
                repr(rep["residual_lower"]),
            ]))  # fmt: skip
    return lines


def _assert_csv_writer_writes(path, tmp_path) -> list:
    """The file's rows, parsed; asserts that no cell needs quoting and that
    csv.writer, in the dialect the package states, writes the same bytes."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    for row in rows:
        assert len(row) == len(header)
        assert not any(c in field for field in row for c in ',"\r\n'), row
    with open(tmp_path / "again.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    return [header, *rows]


def test_campaign_csv_text_is_what_the_csv_writer_writes(tmp_path, monkeypatch):
    # Every CSV is written as text, not through csv.writer: no field may need
    # quoting, and the parsed rows written by csv.writer give the same bytes.
    # Sample 3 fails, so a span is written in parts.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 4)
    monkeypatch.setattr(harness, "draw_samples", _failing_at(3, harness.draw_samples))
    cfg = CampaignConfig(classes=(2, 7), samples_per_class=6, master_seed=2**64 + 3)
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert summary["error_count"] == 2 and summary["total_points"] == 2 * 5 * 4
    header, *rows = _assert_csv_writer_writes(tmp_path / "v.csv", tmp_path)
    assert header == harness.CSV_FIELDS and len(rows) == summary["total_points"]


def test_sweep_and_table1_csv_text_is_what_the_csv_writer_writes(tmp_path):
    # The sweep grid has a flagged point (-0.5), left out of the rows; the
    # table1 rows have None cells (class 1's table_bound, classes 7-9's param).
    result = sweep_family(5, [0.25, -0.5, 1e-300, 1.75], csv_path=tmp_path / "s.csv")
    assert result["flagged"] == [-0.5]
    header, *rows = _assert_csv_writer_writes(tmp_path / "s.csv", tmp_path)
    assert rows == [[repr(v) for v in row] for row in result["rows"]] and len(rows) == 3
    entries = table1_check()
    assert main(["table1", "--out", str(tmp_path / "t.csv")]) == 0
    header, *rows = _assert_csv_writer_writes(tmp_path / "t.csv", tmp_path)
    assert tuple(header) == harness.TABLE1_FIELDS and len(rows) == len(entries)
    cells = [dict(zip(header, row)) for row in rows]
    assert all(c["table_bound"] == "" for c in cells if c["class"] == "1")
    assert all(c["param"] == "" for c in cells if c["class"] in ("7", "8", "9"))
    grid = set(map(repr, harness._TABLE1_GRID.tolist()))
    assert {c["param"] for c in cells if c["class"] == "5"} == grid


def _python_leaves(value):
    """The leaves of a result, asserting that every container is a dict with
    str keys, a list or a tuple: type(leaf) is exact, so np.float64 (a float
    subclass) is not taken for a float."""
    if type(value) is dict:
        assert all(type(k) is str for k in value), list(value)
        value = list(value.values())
    if type(value) in (list, tuple):
        return [leaf for v in value for leaf in _python_leaves(v)]
    return [value]


def test_command_results_hold_only_python_types(tmp_path):
    # A command's library result is the JSON it prints: no numpy scalar in it,
    # whatever the grid it was given.
    results = [table1_check(), table1_check([0.4, 1]), table1_check(np.array([0.4, 1.3]))]
    results.append(sweep_family(4, np.array([0.3, -0.2, 1.1])))
    cfg = CampaignConfig(classes=(3, 6), samples_per_class=3, master_seed=11)
    results.append(run_campaign(cfg, tmp_path / "v.csv"))
    for result in results:
        leaves = _python_leaves(result)
        kinds = {type(leaf) for leaf in leaves}
        assert kinds <= {int, float, bool, str, type(None)}, kinds
    assert all(type(row["param"]) in (float, type(None)) for row in results[0])
    assert "np." not in repr(results[:4])


def test_campaign_rows_do_not_depend_on_chunks_or_workers(tmp_path, monkeypatch):
    # Spans of 16 among 8 x 70 samples: seven of the 35 spans cross a class
    # boundary.
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
    # Spans of 5 among 23 samples of 8 classes: the minimum can sit in any
    # span. At this seed it is class 4, sample 17 (the second sample of the
    # eighteenth span, which holds class 4's samples 16-20), focus 3.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 5)
    for workers in (1, 2):
        cfg = CampaignConfig(samples_per_class=23, master_seed=20260827, workers=workers)
        summary = run_campaign(cfg, tmp_path / f"w{workers}.csv")
        rows = read_rows(tmp_path / f"w{workers}.csv")
        row = next(r for r in rows if float(r["residual_lower"]) == summary["min_residual"])
        assert summary["min_residual_at"] == {
            "class": int(row["class"]),
            "sample_index": int(row["sample_index"]),
            "sub_seed": row["sub_seed"],
            "focus": int(row["focus"]),
        }


def test_campaign_spans_cross_classes(tmp_path, monkeypatch):
    # Spans of 10 among 4 samples of classes 1-4: the first span holds classes
    # 1 and 2 and class 3's first two samples, the second the rest of class 3
    # and class 4. At this seed the minimum is class 4, sample 0, focus 1: in
    # the second span's second class. Then sample 3 of every class fails, so
    # both spans fall back to one sample at a time.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 10)
    cfg = CampaignConfig(classes=(1, 2, 3, 4), samples_per_class=4, master_seed=1)
    spans = [
        ((1, range(0, 4)), (2, range(0, 4)), (3, range(0, 2))),
        ((3, range(2, 4)), (4, range(0, 4))),
    ]
    assert list(harness._spans(cfg.classes, cfg.samples_per_class)) == spans
    want = _reference_rows(cfg)
    lowest = min(want[1:], key=lambda line: float(line.rsplit(",", 1)[1])).split(",")
    min_at = {"class": 4, "sample_index": 0, "sub_seed": "1:4:0", "focus": 1}
    assert min_at == dict(zip(min_at, (int(lowest[0]), int(lowest[1]), lowest[2], int(lowest[3]))))
    summary = run_campaign(cfg, tmp_path / "all.csv")
    assert (tmp_path / "all.csv").read_text().splitlines() == want
    assert summary["min_residual_at"] == min_at and not summary["errors"]
    monkeypatch.setattr(harness, "draw_samples", _failing_at(3, harness.draw_samples))
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert summary["errors"] == [
        {
            "class": cls,
            "sample_index": 3,
            "sub_seed": f"1:{cls}:3",
            "type": "RuntimeError",
            "message": "sampler broke at index 3",
        }
        for cls in (1, 2, 3, 4)
    ]
    kept = [line for line in want if line.split(",")[1] != "3"]
    assert (tmp_path / "v.csv").read_text().splitlines() == kept
    assert summary["total_points"] == len(kept) - 1 == 4 * 3 * 4
    assert summary["min_residual_at"] == min_at


def test_campaign_summary_bins_match_np_histogram():
    # Values at every edge, one ulp to each side of it, at -0.05, 0.0 and 1.0
    # exactly, outside the range, infinite and NaN, in three groups.
    rng = np.random.default_rng(5)
    for edges in (harness.RESIDUAL_BINS, harness.TAU1_BINS):
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-0.05, 0.0, 1.0, -0.06, 1.01, -1.0, 2.0, np.inf, -np.inf, np.nan],
            rng.uniform(-0.1, 1.1, 300),
        ])  # fmt: skip
        groups = rng.integers(0, 3, x.size)
        nbins = len(edges) - 1
        counts = harness._group_counts(groups, harness._bin_index(x, edges), nbins, 3)
        for g in range(3):
            assert counts[g].tolist() == np.histogram(x[groups == g], bins=edges)[0].tolist()
        assert counts.sum() == np.histogram(x, bins=edges)[0].sum() < x.size


def test_campaign_summary_counts_bound_methods(tmp_path):
    cfg = CampaignConfig(samples_per_class=12, master_seed=4)
    summary = run_campaign(cfg, tmp_path / "out.csv")
    rows = read_rows(tmp_path / "out.csv")
    for cls, entry in summary["per_class"].items():
        counts = dict.fromkeys(entry["methods"], 0)
        for row in rows:
            if row["class"] == cls:
                for label in ("12", "13", "23"):
                    counts[row[f"method_{label}"]] += 1
        # Each triple of a state appears in the rows of its three foci.
        assert counts == {m: 3 * n for m, n in entry["methods"].items()}
        assert sum(entry["methods"].values()) == 4 * cfg.samples_per_class
    assert list(summary["per_class"]["1"]["methods"]) == ["exact-pure", "simplex-zero", "rdl-line"]


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
    assert summary["errors"] == [
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
    assert summary["total_points"] == len(expected) == 7 * 4


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
    assert [(e["sample_index"], e["type"], e["message"]) for e in summary["errors"]] == [
        (4, "FloatingPointError", "engine broke")
    ]
    expected = [r for r in read_rows(tmp_path / "all.csv") if r["sample_index"] != "4"]
    assert read_rows(tmp_path / "v.csv") == expected


def test_campaign_records_a_sample_whose_operators_stay_singular(tmp_path, monkeypatch):
    # Sample 5's stream starts with 8 zero deviates, so its first operator
    # block is exactly singular: the span's stacked preparation fails, each
    # sample is prepared alone, and only sample 5 is recorded, with the error
    # of its non-finite state. Every other row is the unpatched run's.
    cfg = CampaignConfig(classes=(3,), samples_per_class=8, master_seed=11)
    run_campaign(cfg, tmp_path / "all.csv")
    singular = first_seed_word(sample_seed(11, 3, 5))
    singular_streams(monkeypatch, lambda seed: 8 * (first_seed_word(seed) == singular))
    summary = run_campaign(cfg, tmp_path / "v.csv")
    assert summary["errors"] == [
        {
            "class": 3,
            "sample_index": 5,
            "sub_seed": "11:3:5",
            "type": "ValueError",
            "message": "a dressed state has norm nan, which cannot be normalized",
        }
    ]
    expected = [r for r in read_rows(tmp_path / "all.csv") if r["sample_index"] != "5"]
    assert read_rows(tmp_path / "v.csv") == expected


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(classes=(1, 9))
    with pytest.raises(ValueError):
        CampaignConfig(samples_per_class=0)
    with pytest.raises(ValueError, match="master_seed"):
        CampaignConfig(master_seed=-1)
    for bad in (0.0, float("nan"), float("inf"), np.int64(2), True):
        with pytest.raises(ValueError, match="mu3"):
            CampaignConfig(mu3=bad)
    with pytest.raises(ValueError, match="empty"):
        CampaignConfig(classes=())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="threshold"):
            CampaignConfig(negativity_threshold=bad)
        with pytest.raises(ValueError, match="threshold"):
            sweep_family(5, [0.5], threshold=bad)


def test_campaign_config_rejects_non_integer_counts_and_seeds():
    # Checked, not coerced: a seed of 1.5 would draw seed 1's states and
    # write "1.5" into every sub-seed, and True would be written as "True".
    for name in ("samples_per_class", "master_seed", "workers"):
        for bad in (1.5, 2.0, True, np.int64(2), "2"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                CampaignConfig(**{name: bad})


def test_campaign_config_rejects_repeated_or_non_integer_classes():
    # Checked, not coerced: a repeated class would be sampled and counted
    # twice, and a float class is no index of the summary's counts.
    for bad in ((2, 2), (1, 3, 1), (2.0,), (True,), (1, np.int64(3))):
        with pytest.raises(ValueError, match="distinct integers"):
            CampaignConfig(classes=bad, samples_per_class=3, master_seed=1)


def test_sweep_class5_nonnegative(tmp_path):
    result = sweep_family(5, np.arange(0.0, 2.0001, 0.05), csv_path=tmp_path / "s.csv")
    assert not result["violations"]
    assert not result["flagged"]
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
    assert result["flagged"] == [-0.5]
    assert len(result["rows"]) == 2


def test_sweep_unknown_class():
    with pytest.raises(ValueError):
        sweep_family(7, [0.1])


def test_sweep_rejects_a_non_integer_class():
    # Checked, not coerced: np.int64(3) would reach the result, which json
    # cannot serialize, and 3.0 would be printed as the class.
    for bad in (np.int64(3), 3.0, True):
        with pytest.raises(ValueError, match="no sweep binding"):
            sweep_family(bad, [0.5])
    assert json.loads(json.dumps(sweep_family(3, [0.5])))["class"] == 3


def test_sweep_rejects_non_finite_points(tmp_path):
    # NaN and inf would reach "flagged" as NaN and Infinity, which are not
    # JSON; table1_check rejects them too. The CSV is left untouched.
    path = tmp_path / "s.csv"
    path.write_text("kept\n")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            sweep_family(5, [0.5, bad], csv_path=path)
    assert path.read_text() == "kept\n"
    with pytest.raises(ValueError):
        table1_check(grid=[np.nan])


def test_sweep_and_table1_take_empty_grids():
    # No grid point, or none where the family is defined: zero chunks.
    for grid in ([], [-0.5]):
        result = sweep_family(5, grid)
        assert (result["rows"], result["flagged"], result["violations"]) == ([], grid, [])
    entries = table1_check(grid=[])
    assert len(entries) == 12
    assert {(e["class"], e["param"]) for e in entries} == {(7, None), (8, None), (9, None)}


def test_sweep_and_table1_do_not_depend_on_chunks(monkeypatch):
    grid = np.concatenate([[-0.3, -0.1], np.linspace(0.0, 2.0, 40)])
    sweeps = [sweep_family(cls, grid, threshold=0.02) for cls in (2, 5, 6)]
    assert all(len(s["flagged"]) == 2 for s in sweeps) and any(s["violations"] for s in sweeps)
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
    assert not any(e["violation"] for e in entries)
    # class 9 q2q3q4 marginal is exactly a pure GHZ triple
    g9 = [e for e in entries if e["class"] == 9 and e["triple"] == (2, 3, 4)]
    assert len(g9) == 1
    assert g9[0]["rdl_method"] == "exact-pure"
    assert g9[0]["rdl_value"] == pytest.approx(1.0, abs=1e-9)


def test_tangle_report_levels(tmp_path):
    bell = tangle_report(ghz(2), 1)
    assert bell["tau2"] == pytest.approx(1.0, abs=1e-10)
    w3 = tangle_report(w(3), 1)
    assert w3["tau3"] == pytest.approx(0.0, abs=1e-10)
    assert w3["ckw_residual"] == pytest.approx(0.0, abs=1e-9)
    g4 = tangle_report(ghz(4), 1)
    assert g4["sm_report"]["residual_lower"] == pytest.approx(1.0, abs=1e-9)
    # Five qubits do not reach the report: PureState and the state-file
    # reader are the boundary.
    with pytest.raises(ValueError, match="supported range 2..4"):
        PureState.from_amplitudes(np.ones(32))
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"n": 5, "amplitudes": [[2**-2.5, 0.0]] * 32}))
    assert main(["tangle", str(path)]) == 2


def test_tangle_report_terms_are_the_residuals_own():
    # Each state's one-row report against its row of an engine call on all 32.
    samples = [(cls, idx) for cls in range(1, 9) for idx in range(4)]
    psis = [random_slocc_state(cls, sample_seed(31, cls, idx))[0] for cls, idx in samples]
    for psi, reports in zip(psis, sm_reports(psis)):
        for rep in reports:
            printed = tangle_report(psi, rep["focus"])
            assert printed["tau1"] == rep["tau1"]
            assert printed["tau2_terms"] == rep["tau2_terms"]
            assert printed["ckw_residual"] == rep["tau1"] - sum(rep["tau2_terms"].values())
            # The report is the JSON itself, every float equal, not a
            # value that converts to it.
            assert printed["sm_report"] == rep
            json.dumps(printed, allow_nan=False)


# ------------------------------------------------------------------- CLI


def test_tangle_report_three_qubit_terms(rng):
    psi = local_image(w(3), [rng.normal(size=(2, 2)) for _ in range(3)])
    for focus in (1, 2, 3):
        report = tangle_report(psi, focus)
        assert list(report["tau2_terms"]) == [q for q in (1, 2, 3) if q != focus]
        assert report["ckw_residual"] == report["tau1"] - sum(report["tau2_terms"].values())


def test_tangle_report_rejects_focus_outside_range(tmp_path):
    for psi in (ghz(2), w(3)):
        for focus in (0, psi.n_qubits + 1):
            with pytest.raises(ValueError, match="focus"):
                tangle_report(psi, focus)
    # The focus is checked, not coerced: a bool and a numpy integer would
    # reach the report, and a float would fail as an index.
    for focus in (True, np.int64(2), 2.0):
        with pytest.raises(ValueError, match="focus"):
            tangle_report(ghz(4), focus)
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


def test_cli_verify_json_is_the_summary(tmp_path, capsys):
    # What verify --json prints is what --summary holds and run_campaign returns.
    out, summary_path = tmp_path / "v.csv", tmp_path / "v.json"
    for workers in ("1", "2"):
        argv = ["verify", "--classes", "1-3", "--samples", "5", "--seed", "8",
                "--workers", workers, "--out", str(out), "--summary", str(summary_path)]  # fmt: skip
        assert main([*argv, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(summary_path.read_text())
    cfg = CampaignConfig(classes=(1, 2, 3), samples_per_class=5, master_seed=8)
    assert run_campaign(cfg, tmp_path / "again.csv") == printed


def test_cli_sweep_json_rows_are_its_csv_rows(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for cls in (2, 5):
        argv = ["sweep", "--class", str(cls), "--a-min", "-0.1", "--a-max", "1", "--step", "0.1"]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*argv, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == len(printed["rows"]) == 11 and printed["flagged"] == [-0.1]
        assert [[repr(v) for v in row] for row in printed["rows"]] == rows


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
    # n must be a JSON integer and each amplitude a pair of JSON numbers;
    # neither is coerced (1e400 parses as inf, which int() cannot convert).
    two_qubits = '[[1, 0], [0, 0], [0, 0], [0, 0]]'
    for n, amps in [("1e400", two_qubits), ("4.9", two_qubits), ('"2"', two_qubits),
                    ("true", '[[1, 0], [1, 0]]'), ("2", '[[true, 0], [0, 0], [0, 0], [0, 0]]'),
                    ("2", '[[1, "0"], [0, 0], [0, 0], [0, 0]]'),
                    ("2", f'[[{10**400}, 0], [0, 0], [0, 0], [0, 0]]')]:  # fmt: skip
        bad.write_text(f'{{"n": {n}, "amplitudes": {amps}}}')
        assert main(["tangle", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed state file: ") and err.count("\n") == 1


def test_cli_tangle_rejects_qubit_count_out_of_range(tmp_path, capsys):
    # The declared n is checked before 2**n is formed.
    path = tmp_path / "big.json"
    for n in (10**6, -1):
        path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0]]}))
        assert main(["tangle", str(path)]) == 2
        assert "outside supported range 2..4" in capsys.readouterr().err


def test_cli_tangle_rejects_nan_amplitude(tmp_path, capsys):
    path = tmp_path / "nan.json"
    amps = [[0.25, 0.0]] * 16
    amps[3] = [float("nan"), 0.0]
    path.write_text(json.dumps({"n": 4, "amplitudes": amps}))
    assert main(["tangle", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
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
    # Point k is the double nearest the decimal a_min + k step: 0.3, not
    # 0.1 * 3 = 0.30000000000000004, and with a 17-digit a_min the fourth
    # point is 0.4234567890123457, not 0.42345678901234574.
    capsys.readouterr()
    for grid, points in [
        (["0", "0.5", "0.1"], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
        (["0.12345678901234568", "0.6", "0.1"],
         [0.12345678901234568, 0.22345678901234567, 0.3234567890123457, 0.4234567890123457,
          0.5234567890123457]),
    ]:  # fmt: skip
        argv = ["sweep", "--class", "5", "--a-min", grid[0], "--a-max", grid[1], "--step", grid[2]]
        assert main([*argv, "--json"]) == 0
        assert [row[0] for row in json.loads(capsys.readouterr().out)["rows"]] == points


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


@pytest.mark.parametrize("spec", ["-3", "1-", "a", "3-1"])
def test_cli_rejects_bad_classes_by_name(tmp_path, capsys, spec):
    out = tmp_path / "v.csv"
    assert main(["verify", "--classes", spec, "--samples", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--classes" in err and repr(spec) in err
    assert not out.exists()


def test_cli_classes_skip_empty_parts(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "--classes", "1,,2", "--samples", "1", "--out", str(out)]) == 0
    assert {row["class"] for row in read_rows(out)} == {"1", "2"}


@pytest.mark.parametrize("mu3", ["0", "nan", "inf"])
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
        ["verify", "--classes", "1-2", "--samples", "2", "--workers", "2",
         "--out", "{tmp}/v.csv", "--summary", "{missing}/v.json"],
        ["sweep", "--class", "3", "--json", "--out", "{missing}/s.csv"],
    ],
)  # fmt: skip
def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # Every command opens its files before the first span or engine call, so
    # an unwritable path costs no evaluation and prints no result.
    calls = []
    for name in ("_chunk_rows", "tangle_columns", "_rank2_bounds"):
        counted = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, f=counted, n=name: calls.append(n) or f(*a))
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("error: ") and printed.out == ""
    assert multiprocessing.active_children() == []  # no worker left behind
    assert calls == []


def test_cli_usage_error():
    assert main(["bogus"]) == 2


def _raising(exc):
    def run(*args, **kwargs):
        raise exc

    return run


@pytest.mark.parametrize(
    "name, exc, code",
    [
        ("run_campaign", BrokenProcessPool("a child process terminated abruptly"), 4),
        ("table1_check", RuntimeError("the engine broke"), 4),
        ("run_campaign", OSError("no space left on device"), 2),
        ("table1_check", ValueError("a bad grid"), 2),
    ],
)
def test_cli_exit_code_1_means_only_violations(tmp_path, capsys, monkeypatch, name, exc, code):
    # A ValueError or OSError is a usage or input error (2); any other
    # exception is an internal error (4), its traceback on stderr.
    monkeypatch.setattr(cli, name, _raising(exc))
    command = {"run_campaign": "verify", "table1_check": "table1"}[name]
    assert main([command, "--out", str(tmp_path / "out.csv")]) == code
    printed = capsys.readouterr()
    if code == 2:
        assert printed.err == f"error: {exc}\n"
    else:
        assert printed.err.startswith("Traceback") and f"{type(exc).__name__}: {exc}" in printed.err
    assert printed.out == ""


def test_cli_lets_a_keyboard_interrupt_through(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "table1_check", _raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["table1", "--out", str(tmp_path / "t.csv")])


def test_cli_reuses_one_parser_that_keeps_no_state(tmp_path, capsys):
    # main parses every call with one parser: a command run again, after the
    # others and a parse failure, gives the same output, files and exit code.
    assert cli._build_parser() is cli._build_parser()
    out = {name: str(tmp_path / f"{name}.csv") for name in ("v", "s", "t")}
    commands = [
        ["verify", "--samples", "many"],
        ["verify", "--classes", "2,7", "--samples", "2", "--seed", "3", "--json",
         "--out", out["v"]],
        # "-1e-1" goes through _join_negative_values: a flagged point at -0.1
        ["sweep", "--class", "5", "--a-min", "-1e-1", "--a-max", "0.2", "--step", "0.1",
         "--out", out["s"]],
        ["table1", "--out", out["t"]],
    ]  # fmt: skip
    runs = []
    for _ in range(2):
        for path in out.values():
            Path(path).unlink(missing_ok=True)
        for argv in commands:
            code = main(argv)
            printed = capsys.readouterr()
            files = {name: Path(p).read_bytes() for name, p in out.items() if Path(p).exists()}
            runs.append((code, printed.out, printed.err, files))
    first, second = runs[: len(commands)], runs[len(commands) :]
    assert [run[0] for run in first] == [2, 0, 0, 0]
    assert "argument --samples: invalid int value" in first[0][2]
    assert "1 degenerate" in first[2][1] and len(first[3][3]) == 3
    assert first == second


def test_import_loads_no_scipy():
    # scipy is a test-only reference; the package and its CLI are numpy-only.
    src = str(Path(harness.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qtangle, qtangle.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
