"""Campaign runner and verification surfaces: randomized Monte Carlo sweeps
over the SLOCC classes, single-family parameter sweeps, and the normal-form
bound cross-check table. Emits plot-ready CSV plus a JSON summary; each
command's result is the JSON that its ``--json`` prints. Every CSV is written
as text in one dialect (see ``_csv_file``)."""

from __future__ import annotations

import json
import logging
from concurrent import futures  # its process pool, and multiprocessing, load on first use
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .monogamy import FOCUS_PAIRS, FOCUS_TRIPLES, MU3, PARTNERS, _check_mu3, residual_columns
from .states import (
    CLASS_ARITY,
    NormalFormParams,
    _valid_normal_forms,
    draw_samples,
    dress,
    normal_forms,
)
from .tangles import METHODS, TRIPLES, _triple_bounds, tangle_columns

log = logging.getLogger(__name__)

CSV_FIELDS = [
    "class", "sample_index", "sub_seed", "focus", "partners", "tau1",
    "tau2_1", "tau2_2", "tau2_3", "tau3_12", "tau3_13", "tau3_23",
    "method_12", "method_13", "method_23", "residual_lower",
]  # fmt: skip

_PARTNER_LABELS = ["-".join(map(str, ps)) for ps in PARTNERS]


def _state_lines() -> str:
    """The CSV lines of one campaign state, one per focus, as one str.format
    template. Its fields: 0 the class, 1 the sample index, 2 the sub-seed,
    then the state's values from 3 on, each formatted once: tau1 (4), tau2
    (6), tau3 (4), the residuals (4) and the method tags (4). Each focus picks
    its terms by FOCUS_PAIRS and FOCUS_TRIPLES."""
    tau1, tau2, tau3, residual, method = 3, 7, 13, 17, 21
    lines = []
    for f, label in enumerate(_PARTNER_LABELS):
        cells = [
            "{0}", "{1}", "{2}", str(f + 1), label, f"{{{tau1 + f}}}",
            *(f"{{{tau2 + p}}}" for p in FOCUS_PAIRS[f]),
            *(f"{{{tau3 + t}}}" for t in FOCUS_TRIPLES[f]),
            *(f"{{{method + t}}}" for t in FOCUS_TRIPLES[f]),
            f"{{{residual + f}}}",
        ]  # fmt: skip
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


_STATE_LINES = _state_lines()

# The default cutoff below which a residual counts as a violation.
VIOLATION_THRESHOLD = -1e-7

RESIDUAL_BINS = np.linspace(-0.05, 1.0, 22)
TAU1_BINS = np.linspace(0.0, 1.0, 21)


def _check_threshold(threshold: float) -> None:
    """The one check on a violation threshold: NaN or -inf passes every residual, +inf none."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


@dataclass(frozen=True)
class CampaignConfig:
    classes: tuple = tuple(range(1, 9))
    samples_per_class: int = 100
    master_seed: int = 0
    mu3: float = MU3
    negativity_threshold: float = VIOLATION_THRESHOLD
    workers: int = 1

    def __post_init__(self):
        # Checked, not coerced: a repeated class would be sampled twice, and a
        # float seed written into every sub-seed while its integer part is drawn.
        for name in ("samples_per_class", "master_seed", "workers"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.classes:
            raise ValueError("campaign classes must not be empty")
        classes = self.classes
        if any(type(c) is not int for c in classes) or len(set(classes)) < len(classes):
            raise ValueError(f"campaign classes must be distinct integers, got {classes!r}")
        if any(c not in range(1, 9) for c in self.classes):
            raise ValueError("campaign classes must lie in 1..8 (class 9 has a separable focus)")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        _check_mu3(self.mu3)
        _check_threshold(self.negativity_threshold)


# States per engine call in every command (a campaign task is one span of the
# campaign's (class, index) sequence, which may cross class boundaries), so
# memory does not grow with the input. Each call pays the engine's fixed costs
# once; 128 keeps a 101-point sweep grid in one call.
CHUNK_SIZE = 128


def _chunks(n: int):
    """(start, stop) of each chunk of CHUNK_SIZE states among n, lazily."""
    return ((start, min(start + CHUNK_SIZE, n)) for start in range(0, n, CHUNK_SIZE))


@contextmanager
def _csv_file(path, header):
    """A new file at path, its header line written, in the one dialect of
    every CSV the package writes: cells joined by commas, each line ended by
    a line feed, nothing quoted, as no cell the package writes holds a comma,
    a quote or a line break. So the text is what csv.writer, its line
    terminator set to a line feed, would write."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        yield fh


def _sub_seed(master_seed: int, cls: int, idx: int) -> str:
    return f"{master_seed}:{cls}:{idx}"


def _error_record(cls: int, idx: int, master_seed: int, exc: Exception) -> dict:
    log.error("sample failed: class=%s index=%s seed=%s", cls, idx, master_seed, exc_info=exc)
    return {
        "class": cls,
        "sample_index": idx,
        "sub_seed": _sub_seed(master_seed, cls, idx),
        "type": type(exc).__name__,
        "message": str(exc),
    }


def _evaluate(segments, master_seed: int, mu3: float) -> tuple:
    """Engine columns and residuals of the listed samples, one (cls, indices)
    segment per class: each sample drawn from its sub-seed, each segment
    dressed as a stack, and all of them bounded in one engine call."""
    amps = [dress(cls, draw_samples(cls, master_seed, indices))[0] for cls, indices in segments]
    cols = tangle_columns(np.concatenate(amps))
    return cols, residual_columns(cols, mu3)


def _spans(classes, samples_per_class: int):
    """The campaign's (class, index) sequence, classes in the order given,
    cut into spans of CHUNK_SIZE samples, made one at a time: each span a
    tuple of (cls, start, stop) segments, one per class it crosses."""
    n = samples_per_class
    return (
        tuple(
            (classes[k], max(start - k * n, 0), min(stop - k * n, n))
            for k in range(start // n, (stop - 1) // n + 1)
        )
        for start, stop in _chunks(len(classes) * n)
    )


def _chunk_rows(task: tuple) -> tuple:
    """The CSV text of one span of the campaign's (class, index) sequence
    (four lines per sample), the (class, index) of the samples it holds,
    their residuals (S, 4), one-tangles (S, 4) and bound-method codes (S, 4),
    and a record per failed sample; top level so workers can pickle it.

    The span is evaluated in one engine call, across its class boundaries.
    If that call fails, each sample is evaluated alone, so a failure is
    recorded against the sample that caused it."""
    segments, master_seed, mu3 = task
    samples = [(cls, idx) for cls, start, stop in segments for idx in range(start, stop)]
    parts, errors = [], []
    try:
        whole = [(cls, range(start, stop)) for cls, start, stop in segments]
        parts.append((samples, _evaluate(whole, master_seed, mu3)))
    except Exception:
        for cls, idx in samples:
            try:
                parts.append(([(cls, idx)], _evaluate([(cls, [idx])], master_seed, mu3)))
            except Exception as exc:
                errors.append(_error_record(cls, idx, master_seed, exc))
    text, held = [], []
    residuals, tau1s = np.empty((0, 4)), np.empty((0, 4))
    methods = np.empty((0, 4), dtype=int)
    for part, (cols, res) in parts:
        values = np.concatenate([cols.tau1, cols.tau2, cols.tau3.value, res], axis=1).tolist()
        tags = np.array(METHODS, dtype=object)[cols.tau3.method].tolist()
        text += (
            _STATE_LINES.format(cls, idx, _sub_seed(master_seed, cls, idx), *map(repr, v), *t)
            for (cls, idx), v, t in zip(part, values, tags)
        )
        held += part
        residuals, tau1s = np.concatenate([residuals, res]), np.concatenate([tau1s, cols.tau1])
        methods = np.concatenate([methods, cols.tau3.method])
    return "".join(text), held, residuals, tau1s, methods, errors


def _span_results(tasks, workers: int):
    """The results of _chunk_rows on the tasks, in task order. The calling
    process is one of the workers: the tasks are taken `workers` at a time,
    all but the first of each batch go to a pool of workers - 1 children,
    and the first is evaluated here; so at most workers - 1 results are in
    flight, and with one worker no pool is opened. Closing the generator
    early waits for the spans in flight and kills no child: a child killed
    while it sends its result can leave the pool's teardown blocked."""
    with futures.ProcessPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        while batch := list(islice(tasks, workers)):
            pending = [pool.submit(_chunk_rows, task) for task in batch[1:]]
            yield _chunk_rows(batch[0])
            yield from (future.result() for future in pending)


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The np.histogram bin of each value: i where edges[i] <= x <
    edges[i + 1], the last bin closed; -1 or len(edges) - 1 (no bin) for a
    value outside the edges or NaN."""
    bins = np.searchsorted(edges, x, side="right") - 1
    bins[x == edges[-1]] = len(edges) - 2
    return bins


def _group_counts(groups: np.ndarray, bins: np.ndarray, nbins: int, ngroups: int) -> np.ndarray:
    """Counts (ngroups, nbins) of each bin within each group, in one
    bincount; bins outside 0..nbins-1 are dropped."""
    keep = (bins >= 0) & (bins < nbins)
    flat = np.bincount(groups[keep] * nbins + bins[keep], minlength=ngroups * nbins)
    return flat.reshape(ngroups, nbins)


def run_campaign(cfg: CampaignConfig, csv_path, summary_path=None) -> dict:
    """Run the Monte Carlo campaign, write one CSV row per (state, focus),
    and return the summary that ``summary_path`` (if given) and ``verify
    --json`` hold; its min_residual is None when no row was written.

    Output is a pure function of the config: the (class, sample index)
    sequence, classes in sorted order, is cut into fixed spans of CHUNK_SIZE
    samples that cross class boundaries, each evaluated in one engine call,
    and each span's rows are written as they arrive, in (class, sample index)
    order for any worker count. ``cfg.workers`` counts the processes that
    evaluate spans, this one included: N workers fork min(N, spans) - 1
    children, one worker forks none, and no child outlives the call. The
    summary's histograms and counts are added up per class span by span, so
    memory does not grow with the number of samples.
    """
    classes = sorted(cfg.classes)
    tasks = ((span, cfg.master_seed, cfg.mu3) for span in _spans(classes, cfg.samples_per_class))
    errors = []
    total_points = 0
    violation_count = 0
    min_residual = None
    min_at: dict = {}
    ngroups = max(classes) + 1  # counts are indexed by the class itself
    res_hist = np.zeros((ngroups, len(RESIDUAL_BINS) - 1), dtype=int)
    t1_hist = np.zeros((ngroups, len(TAU1_BINS) - 1), dtype=int)
    methods = np.zeros((ngroups, len(METHODS)), dtype=int)
    # At most one worker per span: ceil(states / CHUNK_SIZE).
    workers = min(cfg.workers, -(-len(classes) * cfg.samples_per_class // CHUNK_SIZE))
    # The file opens first, so an unwritable path fails before any child
    # starts; if a step here raises, closing the results lets the children
    # finish their spans and ends them.
    with _csv_file(csv_path, CSV_FIELDS) as fh, closing(
        _span_results(tasks, workers)
    ) as results:
        for text, held, residuals, tau1s, codes, span_errors in results:
            errors.extend(span_errors)
            fh.write(text)
            total_points += residuals.size
            groups = np.repeat(np.array([cls for cls, _ in held], dtype=int), 4)
            res_bins = _bin_index(residuals.ravel(), RESIDUAL_BINS)
            res_hist += _group_counts(groups, res_bins, len(RESIDUAL_BINS) - 1, ngroups)
            t1_bins = _bin_index(tau1s.ravel(), TAU1_BINS)
            t1_hist += _group_counts(groups, t1_bins, len(TAU1_BINS) - 1, ngroups)
            methods += _group_counts(groups, codes.ravel(), len(METHODS), ngroups)
            violation_count += int(np.count_nonzero(residuals < cfg.negativity_threshold))
            if held and (min_residual is None or residuals.min() < min_residual):
                i = int(np.argmin(residuals))  # the first row at the minimum
                min_residual = float(residuals.flat[i])
                (cls, idx), focus = held[i // 4], i % 4 + 1  # its sample and focus
                min_at = dict(zip(CSV_FIELDS, (cls, idx, _sub_seed(cfg.master_seed, cls, idx), focus)))
    per_class = {
        str(cls): {
            "residual_hist": res_hist[cls].tolist(),
            "residual_bin_edges": RESIDUAL_BINS.tolist(),
            "tau1_hist": t1_hist[cls].tolist(),
            "tau1_bin_edges": TAU1_BINS.tolist(),
            "methods": dict(zip(METHODS, methods[cls].tolist())),
        }
        for cls in classes
    }
    summary = {
        "total_points": total_points,
        "violation_count": violation_count,
        "error_count": len(errors),
        "min_residual": min_residual,
        "min_residual_at": min_at,
        "per_class": per_class,
        "errors": errors,
    }
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, allow_nan=False)
    return summary


# Parameter bindings for the single-family sweeps: each parameter is a fixed
# multiple of the one real sweep variable a (a / 4 is a * 0.25 to the bit).
_SWEEP_SCALES = {2: (1.0, 1.0, 1.0), 3: (1.0, 0.25), 4: (1.0, 0.5), 5: (1.0,), 6: (1.0,)}
SWEEP_BINDINGS = {
    cls: lambda a, scales=scales: NormalFormParams(*(a * k for k in scales))
    for cls, scales in _SWEEP_SCALES.items()
}


def sweep_family(
    cls: int,
    a_values,
    mu3: float = MU3,
    threshold: float = VIOLATION_THRESHOLD,
    csv_path=None,
) -> dict:
    """Residual lower bounds along a one-parameter normal-form family, as
    ``sweep --json`` prints them: the class, rows (a, residual focus 1..4),
    flagged points (where the normal form degenerates) and violations (a,
    focus, residual below the threshold)."""
    # Checked, not coerced: np.int64(3) would reach the result unserializable,
    # and 3.0 would print as the class.
    if type(cls) is not int or cls not in SWEEP_BINDINGS:
        raise ValueError(f"no sweep binding for class {cls!r}; classes {sorted(SWEEP_BINDINGS)}")
    _check_mu3(mu3)
    _check_threshold(threshold)
    points = np.array([float(a) for a in a_values])
    amps, valid = normal_forms(cls, np.multiply.outer(points, _SWEEP_SCALES[cls]))
    amps, grid, flagged = amps[valid], points[valid].tolist(), points[~valid].tolist()
    residuals = []
    for start, stop in _chunks(len(amps)):
        residuals += residual_columns(tangle_columns(amps[start:stop]), mu3).tolist()
    rows = [(a, *res) for a, res in zip(grid, residuals)]
    violations = [
        (a, focus, r)
        for a, res in zip(grid, residuals)
        for focus, r in enumerate(res, start=1)
        if r < threshold
    ]
    if csv_path is not None:
        header = ["a", "residual_f1", "residual_f2", "residual_f3", "residual_f4"]
        with _csv_file(csv_path, header) as fh:
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return {"class": cls, "rows": rows, "flagged": flagged, "violations": violations}


def _table1_printed(cls: int, pv: tuple, triple: tuple) -> tuple[bool, float | None]:
    """Table 1 for one marginal: whether it declares the three-tangle zero,
    and its printed analytic upper bound (None where it prints none)."""
    if cls == 1:
        return True, None
    if cls == 2:
        a, b, c = pv
        denominator = (abs(a) ** 2 + abs(b) ** 2 + 2 * abs(c) ** 2 + 1) ** 2
        return False, 4 * abs(c) * abs(a**2 - b**2) / denominator
    if cls == 3:
        if triple in ((1, 2, 3), (1, 3, 4)):
            return True, None
        a, b = pv
        return False, 4 * abs(a) * abs(b) / (1 + abs(a) ** 2 + abs(b) ** 2) ** 2
    if cls == 4:
        a, b = pv
        return False, 2 * abs(a**2 - b**2) / (2 + 3 * abs(a) ** 2 + abs(b) ** 2) ** 2
    if cls == 5:
        a = abs(pv[0])
        if triple in ((1, 2, 3), (1, 3, 4)):
            return False, 16 * a**2 / (3 + 4 * a**2) ** 2
        return False, 4 / (3 + 4 * a**2) ** 2
    if cls == 6:
        a = abs(pv[0])
        if triple != (2, 3, 4):
            return True, None
        if a >= 2 ** (2 / 3):
            return True, 0.0
        return False, a * (a**3 - 4) ** 2 / (2 * a**2 + 3) ** 2
    if cls in (7, 8):
        return (True, None) if triple == (2, 3, 4) else (False, 0.25)
    return (False, 1.0) if triple == (2, 3, 4) else (True, None)  # class 9


# Deterministic parameter grids per class: a real ramp plus small fixed
# imaginary offsets so the complex arithmetic is exercised.
_TABLE1_GRID = np.linspace(0.15, 1.95, 10)


def _table1_params(cls: int, t: float | None) -> NormalFormParams:
    if cls == 1:
        return NormalFormParams(a=t, b=0.6 * t + 0.2j, c=0.3 * t - 0.1j, d=0.8 * t + 0.05j)
    if cls == 2:
        return NormalFormParams(a=t, b=0.5 * t + 0.1j, c=0.25 * t)
    if cls == 3:
        return NormalFormParams(a=t, b=0.4 * t + 0.2j)
    if cls == 4:
        return NormalFormParams(a=t, b=0.5 * t - 0.1j)
    if cls in (5, 6):
        return NormalFormParams(a=t)
    return NormalFormParams()


TABLE1_FIELDS = (
    "class", "param", "triple", "declared_zero", "table_bound", "rdl_value", "rdl_method",
    "violation",
)  # fmt: skip
TABLE1_ZERO_TOL = 1e-6  # a declared-zero marginal with a ray bound >= this is a violation


def table1_check(grid=None) -> list[dict]:
    """Compare the printed normal-form marginal bounds with the ray bound;
    flag declared-zero marginals whose ray bound is at least TABLE1_ZERO_TOL.
    One row per marginal, keyed by TABLE1_FIELDS, as ``table1 --json``
    prints it (param and table_bound None where there is none). The normal
    forms of all classes are bounded together, chunk by chunk."""
    grid = _TABLE1_GRID if grid is None else np.asarray(grid, dtype=float)
    cases, amps = [], []
    for cls in range(1, 10):
        points = [None] if CLASS_ARITY[cls] == 0 else grid.tolist()
        pvs = [_table1_params(cls, t).as_tuple(CLASS_ARITY[cls]) for t in points]
        if pvs:
            amps.append(_valid_normal_forms(cls, pvs))
        cases += [(cls, t, pv) for t, pv in zip(points, pvs)]
    amps = np.concatenate(amps)
    rows = []
    for start, stop in _chunks(len(amps)):
        bounds = _triple_bounds(amps[start:stop])
        values, methods = bounds.value.tolist(), bounds.method.tolist()
        for (cls, t, pv), state_values, state_methods in zip(cases[start:stop], values, methods):
            for triple, value, method in zip(TRIPLES, state_values, state_methods):
                declared, printed = _table1_printed(cls, pv, triple)
                violation = declared and value >= TABLE1_ZERO_TOL
                row = (cls, t, triple, declared, printed, value, METHODS[method], violation)
                rows.append(dict(zip(TABLE1_FIELDS, row)))
    return rows


def _cell(value) -> str:
    """A table1 CSV cell: the repr of a number, and an empty cell for None."""
    return "" if value is None else repr(value)


def write_table1_csv(rows: list, csv_path) -> None:
    """One CSV line per table1_check row, in the order given."""
    with _csv_file(csv_path, TABLE1_FIELDS) as fh:
        fh.write("".join(
            f"{r['class']},{_cell(r['param'])},{'|'.join(map(str, r['triple']))},"
            f"{int(r['declared_zero'])},{_cell(r['table_bound'])},{r['rdl_value']!r},"
            f"{r['rdl_method']},{int(r['violation'])}\n"
            for r in rows
        ))  # fmt: skip
