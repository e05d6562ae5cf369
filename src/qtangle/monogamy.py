"""Monogamy residuals: CKW differences, the powered four-qubit lower bound,
and the closed-form results for GHZ/W superposition states.

Every one- and two-tangle here comes from ``tangles.pure_tangles``, one pass
over the amplitude tensor, and the four-qubit bounds from
``tangles.four_qubit_tangles``; no reduced density matrix is formed."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .qstate import PureState
from .states import GhzwParams, ghzw
from .tangles import four_qubit_tangles, pure_tangles


@dataclass(frozen=True)
class ExponentSchedule:
    """Exponents applied to the m-partite terms; the pairwise exponent is
    fixed at 1, the three-tangle exponent defaults to 3/2."""

    mu3: float = 1.5

    def __post_init__(self):
        if not self.mu3 > 0:  # also rejects NaN
            raise ValueError(f"mu3 must be positive, got {self.mu3}")

    @property
    def mu(self) -> dict:
        return {2: 1.0, 3: self.mu3}


@dataclass(frozen=True)
class SmReport:
    """Per-focus breakdown of the four-qubit monogamy budget."""

    focus: int
    tau1: float
    tau2_terms: dict  # partner qubit -> squared concurrence
    tau3_bounds: dict  # (qj, qk) -> TangleBoundResult
    residual_lower: float
    mu3: float

    def to_json_dict(self) -> dict:
        return {
            "focus": self.focus,
            "tau1": self.tau1,
            "tau2_terms": {str(k): v for k, v in self.tau2_terms.items()},
            "tau3_bounds": {f"{j}|{k}": b.to_json_dict() for (j, k), b in self.tau3_bounds.items()},
            "residual_lower": self.residual_lower,
            "mu3": self.mu3,
        }


def _check_focus(focus: int, n: int) -> None:
    if focus not in range(1, n + 1):
        raise ValueError(f"focus must be 1..{n}, got {focus}")


def residual_three_tangle(psi3: PureState, focus: int) -> float:
    """CKW residual of a three-qubit pure state (equals the three-tangle)."""
    if psi3.n_qubits != 3:
        raise ValueError(f"expected 3 qubits, got {psi3.n_qubits}")
    res = ckw_residual(psi3, focus)
    if -1e-9 <= res < 0.0:
        res = 0.0
    return res


def ckw_residual(psi: PureState, focus: int) -> float:
    """One-tangle minus the sum of pairwise tangles; nonnegative by theorem."""
    if psi.n_qubits < 3:
        raise ValueError("ckw_residual needs at least 3 qubits")
    _check_focus(focus, psi.n_qubits)
    tau1, tau2 = pure_tangles(psi)
    return tau1[focus] - sum(t for pair, t in tau2.items() if focus in pair)


def tau4_lower_bound(
    psi4: PureState, focus: int, sched: ExponentSchedule = ExponentSchedule()
) -> SmReport:
    """Lower bound on the residual four-tangle for one focus qubit."""
    _check_focus(focus, 4)
    return sm_report_all_foci(psi4, sched)[focus - 1]


def sm_report_all_foci(
    psi4: PureState, sched: ExponentSchedule = ExponentSchedule()
) -> list[SmReport]:
    """Reports for all four foci, sharing one pass over the amplitude tensor."""
    tau1, tau2, tau3 = four_qubit_tangles(psi4)
    reports = []
    for focus in range(1, 5):
        partners = [q for q in range(1, 5) if q != focus]
        tau2_terms = {j: tau2[tuple(sorted((focus, j)))] for j in partners}
        tau3_bounds = {
            (j, k): tau3[tuple(sorted((focus, j, k)))] for j, k in combinations(partners, 2)
        }
        residual = tau1[focus] - sum(tau2_terms.values())
        residual -= sum(b.value ** sched.mu3 for b in tau3_bounds.values())
        reports.append(
            SmReport(
                focus=focus,
                tau1=tau1[focus],
                tau2_terms=tau2_terms,
                tau3_bounds=tau3_bounds,
                residual_lower=residual,
                mu3=sched.mu3,
            )
        )
    return reports


def ghzw_analytic(p: GhzwParams) -> dict:
    """Closed-form one-tangle and term bounds for GHZ/W superpositions."""
    n = p.n
    a2 = abs(p.alpha) ** 2
    b2 = abs(p.beta) ** 2
    g2 = abs(p.gamma) ** 2
    return {
        "tau1": (4.0 / n**2) * (n**2 * a2 * g2 + (n - 1) * b2 * (b2 + n * g2)),
        "tau2_bound": 4.0 * b2**2 / n**2,
        "tau_nm1_bound": (4.0 / n) * b2 * g2,
        "residual_floor": 4.0 * a2 * g2,
    }


def ghzw_consistency_check(p: GhzwParams) -> dict:
    """Numerically cross-check the closed-form values on the built state."""
    if p.n == 3:  # |111> and the W term make the (1, 2) marginal coherent in |00>, |11>
        raise ValueError("consistency check needs n >= 4: tau2_bound is not a bound at n = 3")
    if p.n > 6:
        raise ValueError("consistency check constructs the state; n <= 6 only")
    ref = ghzw_analytic(p)
    psi = ghzw(p)
    failures = []
    tau1, tau2 = pure_tangles(psi)
    t1, t2 = tau1[1], tau2[(1, 2)]
    if abs(t1 - ref["tau1"]) > 1e-9:
        failures.append(f"one_tangle {t1} vs analytic {ref['tau1']}")
    if t2 > ref["tau2_bound"] + 1e-9:
        failures.append(f"two_tangle {t2} exceeds bound {ref['tau2_bound']}")
    details = {"tau1": t1, "tau2": t2, **ref}
    if p.n == 4:
        residual = tau4_lower_bound(psi, 1).residual_lower
        details["residual_lower"] = residual
        if residual < ref["residual_floor"] - 1e-6:
            failures.append(
                f"residual_lower {residual} below floor {ref['residual_floor']}"
            )
    details["passed"] = not failures
    details["failures"] = failures
    return details
