"""Monogamy residuals: CKW differences and the powered four-qubit lower bound.

Every one- and two-tangle here comes from ``tangles.pure_tangles``, one pass
over the amplitude tensor, and every four-qubit term from the column engine
``tangles.tangle_columns``; no reduced density matrix is formed."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qstate import PureState
from .tangles import PAIRS, TRIPLES, TangleColumns, pure_tangles, tangle_columns

# For each focus 1..4, its partners in increasing order, and the columns of
# its three pairs and three triples. Dropping the focus from increasing tuples
# keeps their order, so the columns come in partner order (by partner, and by
# pair of partners in combinations order).
PARTNERS = tuple(tuple(q for q in range(1, 5) if q != f) for f in range(1, 5))
FOCUS_PAIRS = [[i for i, pair in enumerate(PAIRS) if f in pair] for f in range(1, 5)]
FOCUS_TRIPLES = [[i for i, triple in enumerate(TRIPLES) if f in triple] for f in range(1, 5)]

# The paper's exponent on the three-tangle terms, m/2 for m = 3: the default
# of every mu3 in the package and the CLI.
MU3 = 1.5


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


def _check_mu3(mu3: float) -> None:
    """The one check on a three-tangle exponent."""
    if not mu3 > 0:  # also rejects NaN
        raise ValueError(f"mu3 must be positive, got {mu3}")


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


def residual_columns(cols: TangleColumns, mu3: float) -> np.ndarray:
    """Strong-monogamy residuals (S, 4) by focus: tau1 minus the focus's
    three two-tangles minus its three three-tangle bounds to the power mu3,
    each sum taken in partner order."""
    # Python's float power, as the per-report sum always used: numpy's power
    # differs from it in the last bit for about 5% of values on AVX-512 CPUs.
    powered = np.array([v**mu3 for v in cols.tau3.value.ravel().tolist()])
    powered = powered.reshape(cols.tau3.value.shape)
    t2 = cols.tau2[:, FOCUS_PAIRS]
    t3 = powered[:, FOCUS_TRIPLES]
    residual = cols.tau1 - (t2[..., 0] + t2[..., 1] + t2[..., 2])
    return residual - (t3[..., 0] + t3[..., 1] + t3[..., 2])


def sm_report_all_foci(psi4: PureState, mu3: float = MU3) -> list[SmReport]:
    """Reports for all four foci: the one-state view of ``tangle_columns``
    and ``residual_columns``, each focus's terms picked by FOCUS_PAIRS and
    FOCUS_TRIPLES in partner order."""
    _check_mu3(mu3)
    cols = tangle_columns(psi4.amplitudes[None])
    tau1, tau2 = cols.tau1[0].tolist(), cols.tau2[0].tolist()
    residuals = residual_columns(cols, mu3)[0].tolist()
    return [
        SmReport(
            focus=f + 1,
            tau1=tau1[f],
            tau2_terms={j: tau2[p] for j, p in zip(PARTNERS[f], FOCUS_PAIRS[f])},
            tau3_bounds={
                jk: cols.tau3.result((0, t))
                for jk, t in zip(combinations(PARTNERS[f], 2), FOCUS_TRIPLES[f])
            },
            residual_lower=residuals[f],
            mu3=mu3,
        )
        for f in range(4)
    ]
