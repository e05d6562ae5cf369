"""Monogamy residuals: CKW differences and the powered four-qubit lower bound.

Every term here comes from the column engine ``tangles.tangle_columns``; no
reduced density matrix is formed. ``tangle_report``, the one-state report
that ``tangle --json`` prints, reads one engine row for 2, 3 or 4 qubits."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .qstate import PureState
from .tangles import PAIRS, TRIPLES, TangleColumns, _padded, tangle_columns, three_tangle_pure

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


def _check_mu3(mu3: float) -> None:
    """The one check on a three-tangle exponent: a finite, positive Python
    int or float (or float subclass). Checked, not coerced: the value goes
    into the report as it is, where True, a numpy integer (not serializable)
    or inf (Infinity, not JSON) would break the JSON."""
    if type(mu3) is bool or not isinstance(mu3, (int, float)) or not 0 < mu3 < math.inf:
        # NaN fails 0 < mu3.
        raise ValueError(f"mu3 must be positive and finite, an int or a float, got {mu3!r}")


def _check_focus(focus: int, n: int) -> None:
    # Checked, not coerced: True and np.int64(2) would reach the report (the
    # latter unserializable), 2.0 would fail as a tuple index.
    if type(focus) is not int or focus not in range(1, n + 1):
        raise ValueError(f"focus must be an integer 1..{n}, got {focus!r}")


def _ckw_columns(cols: TangleColumns) -> np.ndarray:
    """CKW residuals (S, 4) by focus: tau1 minus the focus's three
    two-tangles, summed in partner order."""
    t2 = cols.tau2[:, FOCUS_PAIRS]
    return cols.tau1 - (t2[..., 0] + t2[..., 1] + t2[..., 2])


def residual_columns(cols: TangleColumns, mu3: float) -> np.ndarray:
    """Strong-monogamy residuals (S, 4) by focus: the CKW residuals minus the
    focus's three three-tangle bounds to the power mu3 (numpy's power),
    summed in partner order."""
    _check_mu3(mu3)
    t3 = (cols.tau3.value**mu3)[:, FOCUS_TRIPLES]
    return _ckw_columns(cols) - (t3[..., 0] + t3[..., 1] + t3[..., 2])


def _sm_reports(cols: TangleColumns, mu3: float) -> list[dict]:
    """The four foci's reports on the first state of cols, each focus's terms
    picked by FOCUS_PAIRS and FOCUS_TRIPLES in partner order: pair tangles by
    partner, bounds by pair of partners "j|k"."""
    tau1, tau2 = cols.tau1[0].tolist(), cols.tau2[0].tolist()
    residuals = residual_columns(cols, mu3)[0].tolist()
    return [
        {
            "focus": f + 1,
            "tau1": tau1[f],
            "tau2_terms": {j: tau2[p] for j, p in zip(PARTNERS[f], FOCUS_PAIRS[f])},
            "tau3_bounds": {
                f"{j}|{k}": cols.tau3.result((0, t))
                for (j, k), t in zip(combinations(PARTNERS[f], 2), FOCUS_TRIPLES[f])
            },
            "residual_lower": residuals[f],
            "mu3": mu3,
        }
        for f in range(4)
    ]


def tangle_report(psi: PureState, focus: int, mu3: float = MU3) -> dict:
    """Tangle breakdown of a 2-4 qubit pure state, as ``tangle --json`` prints
    it, from one engine row of the state padded to four qubits (its
    spectators' foci and pairs dropped); three qubits add the closed-form
    three-tangle, four the strong-monogamy report."""
    _check_mu3(mu3)
    n = psi.n_qubits
    _check_focus(focus, n)
    cols = tangle_columns(_padded(psi)[None])
    f = focus - 1
    tau2 = cols.tau2[0].tolist()
    terms = {j: tau2[p] for j, p in zip(PARTNERS[f], FOCUS_PAIRS[f]) if j <= n}
    report = {"n_qubits": n, "focus": focus, "tau1": cols.tau1[0, f].item()}
    if n == 2:
        return {**report, "tau2": terms[3 - focus]}
    report |= {"tau2_terms": terms, "ckw_residual": _ckw_columns(cols)[0, f].item()}
    if n == 3:
        return {**report, "tau3": three_tangle_pure(psi)}
    return {**report, "sm_report": _sm_reports(cols, mu3)[f]}
