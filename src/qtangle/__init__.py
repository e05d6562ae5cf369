"""Tangle measures and strong-monogamy verification for few-qubit states."""

from .monogamy import (
    SmReport,
    ckw_residual,
    ghzw_analytic,
    ghzw_consistency_check,
    residual_columns,
    residual_three_tangle,
    sm_report_all_foci,
)
from .qstate import PureState, apply_local_operators, state_from_json, state_to_json
from .states import (
    GhzwParams,
    NormalFormParams,
    ghz,
    ghzw,
    normal_form,
    random_slocc_state,
    sample_seed,
    w,
)
from .tangles import (
    TangleBoundResult,
    TangleColumns,
    pure_tangles,
    tangle_columns,
    three_tangle_pure,
)

__version__ = "0.1.0"
