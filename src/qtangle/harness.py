"""Campaign runner and verification surfaces: randomized Monte Carlo sweeps
over the SLOCC classes, single-family parameter sweeps, and the normal-form
bound cross-check table. Emits plot-ready CSV plus a JSON summary."""

from __future__ import annotations

import csv
import json
import logging
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from itertools import combinations
from multiprocessing import Pool

import numpy as np

from .monogamy import ExponentSchedule, _check_focus, sm_report_all_foci, tau4_lower_bound
from .qstate import PureState
from .states import CLASS_ARITY, NormalFormParams, normal_form, random_slocc_state, sample_seed
from .tangles import four_qubit_tangles, pure_tangles, three_tangle_pure

log = logging.getLogger(__name__)

CSV_FIELDS = [
    "class",
    "sample_index",
    "sub_seed",
    "focus",
    "partners",
    "tau1",
    "tau2_1",
    "tau2_2",
    "tau2_3",
    "tau3_12",
    "tau3_13",
    "tau3_23",
    "method_12",
    "method_13",
    "method_23",
    "residual_lower",
]

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
    mu3: float = 1.5
    negativity_threshold: float = -1e-7
    workers: int = 1

    def __post_init__(self):
        if not self.classes:
            raise ValueError("campaign classes must not be empty")
        if any(c not in range(1, 9) for c in self.classes):
            raise ValueError("campaign classes must lie in 1..8 (class 9 has a separable focus)")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        ExponentSchedule(mu3=self.mu3)  # the one check on mu3
        _check_threshold(self.negativity_threshold)


@dataclass
class CampaignSummary:
    total_points: int  # CSV rows written
    violation_count: int
    error_count: int
    min_residual: float | None  # None when no row was written
    min_residual_at: dict
    per_class: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # one record per failed sample

    def to_json_dict(self) -> dict:
        return asdict(self)


def _sample_rows(task: tuple) -> tuple:
    """Rows for one (class, index) sample, or the record of its failure;
    top level so workers can pickle it."""
    cls, idx, master_seed, mu3 = task
    sub_seed = f"{master_seed}:{cls}:{idx}"
    try:
        psi, _ = random_slocc_state(cls, sample_seed(master_seed, cls, idx))
        reports = sm_report_all_foci(psi, ExponentSchedule(mu3=mu3))
    except Exception as exc:
        log.exception("sample failed: class=%s index=%s seed=%s", cls, idx, master_seed)
        error = {
            "class": cls,
            "sample_index": idx,
            "sub_seed": sub_seed,
            "type": type(exc).__name__,
            "message": str(exc),
        }
        return cls, idx, sub_seed, None, error
    rows = []
    for rep in reports:
        partners = sorted(rep.tau2_terms)
        pairs = list(combinations(partners, 2))
        row = {
            "class": cls,
            "sample_index": idx,
            "sub_seed": sub_seed,
            "focus": rep.focus,
            "partners": "-".join(str(p) for p in partners),
            "tau1": repr(rep.tau1),
            "residual_lower": repr(rep.residual_lower),
        }
        for slot, p in enumerate(partners, start=1):
            row[f"tau2_{slot}"] = repr(rep.tau2_terms[p])
        for label, pair in zip(("12", "13", "23"), pairs):
            row[f"tau3_{label}"] = repr(rep.tau3_bounds[pair].value)
            row[f"method_{label}"] = rep.tau3_bounds[pair].method
        rows.append(row)
    return cls, idx, sub_seed, rows, None


def run_campaign(cfg: CampaignConfig, csv_path, summary_path=None) -> CampaignSummary:
    """Run the Monte Carlo campaign, write one CSV row per (state, focus).

    Output is a pure function of the config: work is sharded by
    (class, sample index) and each sample's rows are written as they arrive,
    in that order for any worker count.
    """
    tasks = [
        (cls, idx, cfg.master_seed, cfg.mu3)
        for cls in sorted(cfg.classes)
        for idx in range(cfg.samples_per_class)
    ]
    errors = []
    total_points = 0
    violation_count = 0
    min_residual = None
    min_at: dict = {}
    residuals: dict = {cls: [] for cls in cfg.classes}
    tau1s: dict = {cls: [] for cls in cfg.classes}
    pool = Pool(cfg.workers) if cfg.workers > 1 else None
    with pool or nullcontext(), open(csv_path, "w", newline="") as fh:
        results = pool.imap(_sample_rows, tasks, chunksize=32) if pool else map(_sample_rows, tasks)
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for cls, idx, sub_seed, rows, error in results:
            if rows is None:
                errors.append(error)
                continue
            for row in rows:
                writer.writerow(row)
                total_points += 1
                res = float(row["residual_lower"])
                residuals[cls].append(res)
                tau1s[cls].append(float(row["tau1"]))
                if res < cfg.negativity_threshold:
                    violation_count += 1
                if min_residual is None or res < min_residual:
                    min_residual = res
                    min_at = {
                        "class": cls,
                        "sample_index": idx,
                        "sub_seed": sub_seed,
                        "focus": int(row["focus"]),
                    }
    per_class = {}
    for cls in sorted(cfg.classes):
        res_hist, _ = np.histogram(residuals[cls], bins=RESIDUAL_BINS)
        t1_hist, _ = np.histogram(tau1s[cls], bins=TAU1_BINS)
        per_class[str(cls)] = {
            "residual_hist": res_hist.tolist(),
            "residual_bin_edges": RESIDUAL_BINS.tolist(),
            "tau1_hist": t1_hist.tolist(),
            "tau1_bin_edges": TAU1_BINS.tolist(),
        }
    summary = CampaignSummary(
        total_points=total_points,
        violation_count=violation_count,
        error_count=len(errors),
        min_residual=min_residual,
        min_residual_at=min_at,
        per_class=per_class,
        errors=errors,
    )
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            json.dump(summary.to_json_dict(), fh, indent=2, allow_nan=False)
    return summary


# Parameter bindings for the single-family sweeps: everything is tied to
# the one real sweep variable a.
SWEEP_BINDINGS = {
    2: lambda a: NormalFormParams(a=a, b=a, c=a),
    3: lambda a: NormalFormParams(a=a, b=a / 4),
    4: lambda a: NormalFormParams(a=a, b=a / 2),
    5: lambda a: NormalFormParams(a=a),
    6: lambda a: NormalFormParams(a=a),
}


@dataclass
class SweepResult:
    slocc_class: int
    rows: list  # (a, residual focus 1..4)
    flagged: list  # grid points where the normal form degenerates
    violations: list  # (a, focus, residual) below threshold


def sweep_family(
    cls: int,
    a_values,
    mu3: float = 1.5,
    threshold: float = -1e-7,
    csv_path=None,
) -> SweepResult:
    """Residual lower bounds along a one-parameter normal-form family."""
    if cls not in SWEEP_BINDINGS:
        raise ValueError(f"no sweep binding for class {cls}; classes {sorted(SWEEP_BINDINGS)}")
    sched = ExponentSchedule(mu3=mu3)
    _check_threshold(threshold)
    rows = []
    flagged = []
    violations = []
    for a in a_values:
        try:
            psi = normal_form(cls, SWEEP_BINDINGS[cls](float(a)))
        except ValueError:
            flagged.append(float(a))
            continue
        reports = sm_report_all_foci(psi, sched)
        res = [rep.residual_lower for rep in reports]
        rows.append((float(a), *res))
        for rep in reports:
            if rep.residual_lower < threshold:
                violations.append((float(a), rep.focus, rep.residual_lower))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["a", "residual_f1", "residual_f2", "residual_f3", "residual_f4"])
            for row in rows:
                writer.writerow([repr(v) for v in row])
    return SweepResult(slocc_class=cls, rows=rows, flagged=flagged, violations=violations)


def _table1_bound(cls: int, pv: tuple, triple: tuple) -> float | None:
    """Printed analytic upper bound for one marginal, None when the table
    only asserts an exact zero (or nothing) for it."""
    if cls == 2:
        a, b, c = pv
        return 4 * abs(c) * abs(a**2 - b**2) / (abs(a) ** 2 + abs(b) ** 2 + 2 * abs(c) ** 2 + 1) ** 2
    if cls == 3 and triple in ((1, 2, 4), (2, 3, 4)):
        a, b = pv
        return 4 * abs(a) * abs(b) / (1 + abs(a) ** 2 + abs(b) ** 2) ** 2
    if cls == 4:
        a, b = pv
        return 2 * abs(a**2 - b**2) / (2 + 3 * abs(a) ** 2 + abs(b) ** 2) ** 2
    if cls == 5:
        (a,) = pv
        if triple in ((1, 2, 3), (1, 3, 4)):
            return 16 * abs(a) ** 2 / (3 + 4 * abs(a) ** 2) ** 2
        return 4 / (3 + 4 * abs(a) ** 2) ** 2
    if cls == 6 and triple == (2, 3, 4):
        (a,) = pv
        if abs(a) >= 2 ** (2 / 3):
            return 0.0
        return abs(a) * (abs(a) ** 3 - 4) ** 2 / (2 * abs(a) ** 2 + 3) ** 2
    if cls in (7, 8) and triple != (2, 3, 4):
        return 0.25
    if cls == 9 and triple == (2, 3, 4):
        return 1.0
    return None


def _table1_declared_zero(cls: int, pv: tuple, triple: tuple) -> bool:
    if cls == 1:
        return True
    if cls == 3:
        return triple in ((1, 2, 3), (1, 3, 4))
    if cls == 6:
        if triple != (2, 3, 4):
            return True
        return abs(pv[0]) >= 2 ** (2 / 3)
    if cls in (7, 8):
        return triple == (2, 3, 4)
    if cls == 9:
        return triple != (2, 3, 4)
    return False


# Deterministic parameter grids per class: a real ramp plus small fixed
# imaginary offsets so the complex arithmetic is exercised.
_TABLE1_GRID = np.linspace(0.15, 1.95, 10)


def _table1_params(cls: int, t: float) -> NormalFormParams:
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


@dataclass
class Table1Entry:
    slocc_class: int
    param_value: float | None
    triple: tuple
    declared_zero: bool
    table_bound: float | None
    rdl_value: float
    rdl_method: str
    violation: bool


def table1_check(grid=None) -> list[Table1Entry]:
    """Compare the printed normal-form marginal bounds against the ray
    bound; flag declared-zero marginals where the ray bound exceeds 1e-6."""
    grid = _TABLE1_GRID if grid is None else np.asarray(grid, dtype=float)
    entries = []
    for cls in range(1, 10):
        points = [None] if CLASS_ARITY[cls] == 0 else list(grid)
        for t in points:
            params = _table1_params(cls, t) if t is not None else NormalFormParams()
            _, _, bounds = four_qubit_tangles(normal_form(cls, params))
            pv = params.as_tuple(CLASS_ARITY[cls])
            for triple, bound in bounds.items():
                declared = _table1_declared_zero(cls, pv, triple)
                entries.append(
                    Table1Entry(
                        slocc_class=cls,
                        param_value=t,
                        triple=triple,
                        declared_zero=declared,
                        table_bound=_table1_bound(cls, pv, triple),
                        rdl_value=bound.value,
                        rdl_method=bound.method,
                        violation=declared and bound.value >= 1e-6,
                    )
                )
    return entries


def write_table1_csv(entries: list, csv_path) -> None:
    """One CSV row per Table1Entry, in the order given."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["class", "param", "triple", "declared_zero", "table_bound", "rdl_value",
             "rdl_method", "violation"]
        )
        for e in entries:
            writer.writerow(
                [e.slocc_class, e.param_value, "|".join(map(str, e.triple)),
                 int(e.declared_zero), e.table_bound, repr(e.rdl_value), e.rdl_method,
                 int(e.violation)]
            )


def tangle_report(psi: PureState, focus: int, mu3: float = 1.5) -> dict:
    """Printable tangle breakdown for 2-4 qubit pure states."""
    n = psi.n_qubits
    if n not in (2, 3, 4):
        raise ValueError(f"tangle report supports 2-4 qubits, got {n}")
    if n == 4:
        # Every term comes from the report the residual itself is built on.
        sm = tau4_lower_bound(psi, focus, ExponentSchedule(mu3=mu3))
        return {
            "n_qubits": n,
            "focus": focus,
            "tau1": sm.tau1,
            "tau2_terms": sm.tau2_terms,
            "ckw_residual": sm.tau1 - sum(sm.tau2_terms.values()),
            "sm_report": sm.to_json_dict(),
        }
    _check_focus(focus, n)
    tau1, tau2 = pure_tangles(psi)
    report: dict = {"n_qubits": n, "focus": focus, "tau1": tau1[focus]}
    if n == 2:
        report["tau2"] = tau2[(1, 2)]
        return report
    partners = [q for q in range(1, n + 1) if q != focus]
    terms = {j: tau2[tuple(sorted((focus, j)))] for j in partners}
    report["tau2_terms"] = terms
    report["ckw_residual"] = tau1[focus] - sum(terms.values())
    report["tau3"] = three_tangle_pure(psi)
    return report
