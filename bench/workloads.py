"""The benchmark's workloads: seeded inputs, one round of a user-facing qtangle
command, and the checks on everything that round wrote.

A round is a fixed amount of work of about a second at this commit, so
that rounds of one workload are comparable across runs and commits:

* ``campaign``: ``qtangle verify`` over classes 1-8, 32 samples per class
  (256 sampled states), CSV plus JSON summary, one worker. The north-star
  unit of work; almost every three-tangle bound takes the full ray path.
* ``campaign-w2``: the same inputs with ``--workers 2``. The only workload
  that runs the Pool dispatch, the pickling of row dicts and the ordered
  merge. Its first round is run again with one worker after the timed
  rounds, and its CSV and summary must be byte-identical (criterion 9).
* ``sweep``: ``qtangle sweep`` for classes 2-6 on a step-0.02 grid of
  length 2 (505 normal-form grid points). No sampler, and about half the
  bounds take the shortcut methods, so a change to one bound path shows
  here at a different strength than on ``campaign``.
* ``table1``: the ``qtangle table1`` command on a dense seeded grid of 60
  points over all nine normal forms (363 states). It calls only the
  three-tangle bound and the partial trace: the control workload for
  one- and two-tangle changes.

Every input comes from the seed: the campaign master seed, the sweep grid
offset and the table1 grid points.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qtangle import cli, harness, states

METHODS = frozenset({"exact-pure", "simplex-zero", "pi-coincidence", "rdl-line"})
THRESHOLD = -1e-7  # the CLI's default violation threshold
CKW_TOL = 1e-9  # tau1 - sum(tau2) >= -CKW_TOL on every row
RESIDUAL_TOL = 1e-9  # residual_lower against its terms recomputed from the row
REFERENCE_TOL = 1e-6  # tau1/tau2 against the independent numpy reference
ZERO_TOL = 1e-6  # harness.table1_check's declared-zero cutoff
SPOT_CHECKS = 2  # states per round recomputed with the reference


@dataclass
class Outcome:
    """Result of checking one round's output."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)


def _rng(family: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{family}:{seed}:{round_index}")


def _run_cli(argv: list) -> int:
    """One qtangle command in this process; its console report is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- independent reference for tau1 and tau2 -------------------------------------

_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _reduced(amps: np.ndarray, keep: tuple) -> np.ndarray:
    """Reduced density matrix of a four-qubit pure state on 1-based qubits ``keep``."""
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2, 2)
    traced = [q for q in range(4) if q + 1 not in keep]
    d = 2 ** len(keep)
    return np.tensordot(t, t.conj(), axes=(traced, traced)).reshape(d, d)


def reference_tangles(amps: np.ndarray) -> tuple[dict, dict]:
    """tau1 per focus (4 det rho_f) and tau2 per pair (Wootters' eigenvalue form)."""
    tau1 = {f: 4.0 * np.linalg.det(_reduced(amps, (f,))).real for f in range(1, 5)}
    tau2 = {}
    for j in range(1, 5):
        for k in range(j + 1, 5):
            rho = _reduced(amps, (j, k))
            ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
            lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
            c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            tau2[(j, k)] = c * c
    return tau1, tau2


# -- campaign --------------------------------------------------------------------


def campaign_row_ok(row: dict) -> bool:
    """Ranges, method tags, threshold, CKW and the residual's own arithmetic."""
    try:
        tau1 = float(row["tau1"])
        tau2 = [float(row[f"tau2_{i}"]) for i in (1, 2, 3)]
        tau3 = [float(row[f"tau3_{p}"]) for p in ("12", "13", "23")]
        residual = float(row["residual_lower"])
        methods = [row[f"method_{p}"] for p in ("12", "13", "23")]
    except (KeyError, TypeError, ValueError):
        return False
    recomputed = tau1 - sum(tau2) - sum(t**1.5 for t in tau3 if t >= 0.0)
    return (
        all(0.0 <= t <= 1.0 for t in (tau1, *tau2, *tau3))
        and all(m in METHODS for m in methods)
        and residual >= THRESHOLD
        and tau1 - sum(tau2) >= -CKW_TOL
        and abs(residual - recomputed) <= RESIDUAL_TOL
    )


def _campaign_reference_ok(rows: list, master_seed: int) -> bool:
    """The state's rows agree with tau1/tau2 recomputed from the sampled state."""
    cls, idx = int(rows[0]["class"]), int(rows[0]["sample_index"])
    psi, _ = states.random_slocc_state(cls, states.sample_seed(master_seed, cls, idx))
    tau1, tau2 = reference_tangles(psi.amplitudes)
    for row in rows:
        focus = int(row["focus"])
        partners = [int(p) for p in row["partners"].split("-")]
        got = [float(row["tau1"])] + [float(row[f"tau2_{i}"]) for i in (1, 2, 3)]
        want = [tau1[focus]] + [tau2[tuple(sorted((focus, p)))] for p in partners]
        if max(abs(g - w) for g, w in zip(got, want)) > REFERENCE_TOL:
            return False
    return True


class Campaign:
    """``qtangle verify --classes 1-8`` with a seeded master seed per round."""

    classes = tuple(range(1, 9))

    def __init__(self, samples_per_class: int = 32, workers: int = 1):
        self.samples = samples_per_class
        self.workers = workers

    @property
    def states_per_round(self) -> int:
        return len(self.classes) * self.samples

    def inputs(self, seed: int, round_index: int) -> dict:
        # The same for every worker count, so campaign-w2 repeats campaign.
        return {"master_seed": _rng("campaign", seed, round_index).randrange(2**31)}

    def _argv(self, inputs, stem: Path, samples: int, classes: str, workers: int) -> list:
        return [
            "verify",
            *("--classes", classes, "--samples", str(samples)),
            *("--seed", str(inputs["master_seed"]), "--workers", str(workers)),
            *("--out", f"{stem}.csv", "--summary", f"{stem}.json"),
        ]

    def run(self, inputs: dict, stem: Path) -> int:
        return _run_cli(self._argv(inputs, stem, self.samples, "1-8", self.workers))

    def probe(self, inputs: dict, stem: Path) -> int:
        return _run_cli(self._argv(inputs, stem, 1, "1", self.workers))

    def check(self, inputs: dict, stem: Path, rc: int) -> Outcome:
        expected = {(c, i) for c in self.classes for i in range(self.samples)}
        out = Outcome(attempted=len(expected))
        if rc != 0:
            out.problems.append(f"{stem.name}: exit code {rc}")
        try:
            rows = _read_csv(Path(f"{stem}.csv"))
        except OSError as exc:
            out.problems.append(f"{stem.name}: no CSV ({exc})")
            out.failed = out.attempted
            return out
        by_state = defaultdict(list)
        bad = set()
        for row in rows:
            try:
                key = (int(row["class"]), int(row["sample_index"]))
            except (KeyError, TypeError, ValueError):
                out.problems.append(f"{stem.name}: row without a state key")
                continue
            by_state[key].append(row)
            if not campaign_row_ok(row):
                bad.add(key)
        if set(by_state) - expected:
            out.problems.append(f"{stem.name}: rows for states that were not sampled")
        bad |= {key for key in expected if len(by_state.get(key, ())) != 4}
        pick = random.Random(f"spot:{inputs}")
        for key in pick.sample(sorted(expected - bad), min(SPOT_CHECKS, len(expected - bad))):
            if not _campaign_reference_ok(by_state[key], inputs["master_seed"]):
                bad.add(key)
        out.failed = len(bad & expected)
        try:
            with open(f"{stem}.json") as fh:
                summary = json.load(fh)
            if summary["total_points"] != 4 * len(expected):
                out.problems.append(f"{stem.name}: summary total_points {summary['total_points']}")
            if summary["error_count"] or summary["violation_count"]:
                out.problems.append(f"{stem.name}: summary reports errors or violations")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.problems.append(f"{stem.name}: summary is not valid JSON ({exc})")
        return out

    def final_check(self, seed: int, out_dir: Path) -> list:
        """Byte-identity of round 0 against a one-worker rerun (criterion 9)."""
        if self.workers == 1:
            return []
        rerun = out_dir / "w1-r0"
        rc = _run_cli(self._argv(self.inputs(seed, 0), rerun, self.samples, "1-8", 1))
        problems = [] if rc == 0 else [f"one-worker rerun exit code {rc}"]
        for ext in (".csv", ".json"):
            if Path(f"{out_dir / 'r0'}{ext}").read_bytes() != Path(f"{rerun}{ext}").read_bytes():
                problems.append(f"r0{ext} differs from the one-worker output")
        return problems


# -- sweep -----------------------------------------------------------------------


class Sweep:
    """``qtangle sweep`` for classes 2-6 over ``a`` in [x, x + 2], x seeded."""

    classes = (2, 3, 4, 5, 6)
    span = 2.0

    def __init__(self, step: float = 0.02):
        self.step = step
        self.points = int(round(self.span / step)) + 1

    @property
    def states_per_round(self) -> int:
        return len(self.classes) * self.points

    def inputs(self, seed: int, round_index: int) -> dict:
        return {"a_min": _rng("sweep", seed, round_index).uniform(0.0, self.step)}

    def _sweep(self, cls: int, a_min: float, a_max: float, stem: Path) -> int:
        return _run_cli([
            "sweep",
            *("--class", str(cls), "--a-min", repr(a_min), "--a-max", repr(a_max)),
            *("--step", repr(self.step), "--out", f"{stem}-c{cls}.csv"),
        ])

    def run(self, inputs: dict, stem: Path) -> int:
        a = inputs["a_min"]
        return max(self._sweep(c, a, a + self.span, stem) for c in self.classes)

    def probe(self, inputs: dict, stem: Path) -> int:
        return self._sweep(self.classes[0], inputs["a_min"], inputs["a_min"], stem)

    def check(self, inputs: dict, stem: Path, rc: int) -> Outcome:
        out = Outcome(attempted=self.states_per_round)
        if rc != 0:
            out.problems.append(f"{stem.name}: exit code {rc}")
        pick = random.Random(f"spot:{inputs}")
        for cls in self.classes:
            try:
                rows = _read_csv(Path(f"{stem}-c{cls}.csv"))
            except OSError as exc:
                out.problems.append(f"{stem.name}: no CSV for class {cls} ({exc})")
                out.failed += self.points
                continue
            if len(rows) != self.points:
                out.problems.append(f"{stem.name}: class {cls} has {len(rows)} grid rows")
            good = []
            for i, row in enumerate(rows[: self.points]):
                try:
                    a = float(row["a"])
                    res = [float(row[f"residual_f{f}"]) for f in range(1, 5)]
                except (KeyError, TypeError, ValueError):
                    continue
                on_grid = abs(a - (inputs["a_min"] + i * self.step)) < 1e-9
                if on_grid and all(r >= THRESHOLD for r in res):
                    good.append((a, res))
            for a, res in pick.sample(good, min(SPOT_CHECKS, len(good))):
                if not self._reference_ok(cls, a, res):
                    good.remove((a, res))
            out.failed += self.points - len(good)
        return out

    @staticmethod
    def _reference_ok(cls: int, a: float, residuals: list) -> bool:
        """The tau3 terms are nonnegative, so each residual is at most CKW's."""
        psi = states.normal_form(cls, harness.SWEEP_BINDINGS[cls](a))
        tau1, tau2 = reference_tangles(psi.amplitudes)
        for focus, res in zip(range(1, 5), residuals):
            ckw = tau1[focus] - sum(tau2[tuple(sorted((focus, p)))] for p in range(1, 5) if p != focus)
            if res > ckw + REFERENCE_TOL:
                return False
        return True

    def final_check(self, seed: int, out_dir: Path) -> list:
        return []


# -- table1 ----------------------------------------------------------------------


class Table1:
    """``qtangle table1`` with the parameter grid drawn from the seed."""

    def __init__(self, points: int = 60):
        self.points = points

    @property
    def states_per_round(self) -> int:
        # Classes 1-6 take one state per grid point, classes 7-9 have no parameter.
        return 6 * self.points + 3

    def inputs(self, seed: int, round_index: int) -> dict:
        rng = _rng("table1", seed, round_index)
        return {"grid": sorted(rng.uniform(0.15, 1.95) for _ in range(self.points))}

    def _table1(self, grid: list, stem: Path) -> int:
        # The command fixes a 10-point grid; give it this round's grid under
        # the name the CLI calls, leaving harness.table1_check itself (and a
        # tracer's wrapper on it) in place.
        saved = cli.table1_check
        cli.table1_check = lambda: harness.table1_check(grid=grid)
        try:
            return _run_cli(["table1", "--out", f"{stem}.csv"])
        finally:
            cli.table1_check = saved

    def run(self, inputs: dict, stem: Path) -> int:
        return self._table1(inputs["grid"], stem)

    def probe(self, inputs: dict, stem: Path) -> int:
        return self._table1(inputs["grid"][:1], stem)

    def check(self, inputs: dict, stem: Path, rc: int) -> Outcome:
        out = Outcome(attempted=self.states_per_round)
        if rc != 0:
            out.problems.append(f"{stem.name}: exit code {rc}")
        try:
            rows = _read_csv(Path(f"{stem}.csv"))
        except OSError as exc:
            out.problems.append(f"{stem.name}: no CSV ({exc})")
            out.failed = out.attempted
            return out
        by_state = defaultdict(list)
        for row in rows:
            by_state[(row.get("class"), row.get("param"))].append(row)
        grid = inputs["grid"]
        expected = [(str(c), repr(t)) for c in range(1, 7) for t in grid]
        expected += [(str(c), "") for c in (7, 8, 9)]
        if set(by_state) - set(expected):
            out.problems.append(f"{stem.name}: rows for states not on the grid")
        out.failed = sum(not self._state_ok(by_state.get(key, [])) for key in expected)
        return out

    @staticmethod
    def _state_ok(rows: list) -> bool:
        if len(rows) != 4:
            return False
        for row in rows:
            try:
                value = float(row["rdl_value"])
                declared_zero = row["declared_zero"] == "1"
                ok = (
                    row["rdl_method"] in METHODS
                    and 0.0 <= value <= 1.0
                    and row["violation"] == "0"
                    and not (declared_zero and value >= ZERO_TOL)
                )
            except (KeyError, TypeError, ValueError):
                return False
            if not ok:
                return False
        return True

    def final_check(self, seed: int, out_dir: Path) -> list:
        return []


WORKLOADS = {
    "campaign": Campaign,
    "campaign-w2": lambda: Campaign(workers=2),
    "sweep": Sweep,
    "table1": Table1,
}
NAMES = tuple(WORKLOADS)


def make(name: str):
    """The workload of that name, at the size the benchmark measures."""
    return WORKLOADS[name]()
