"""Tangle measures and strong-monogamy verification for few-qubit states."""

from .monogamy import (
    ExponentSchedule,
    SmReport,
    ckw_residual,
    ghzw_analytic,
    ghzw_consistency_check,
    residual_three_tangle,
    sm_report_all_foci,
    tau4_lower_bound,
)
from .qstate import (
    DensityMatrix,
    NumericalError,
    PureState,
    Rank2Decomposition,
    RankError,
    apply_local_operators,
    partial_trace,
    rank2_decompose,
    state_from_json,
    state_to_json,
    trace_norm,
)
from .states import (
    GhzwParams,
    NormalFormParams,
    ghz,
    ghzw,
    normal_form,
    random_normal_form_params,
    random_slocc_state,
    sample_seed,
    w,
)
from .tangles import (
    TangleBoundResult,
    WSimplex,
    four_qubit_tangles,
    one_tangle,
    pure_tangles,
    simplex_member,
    three_tangle_pure,
    three_tangle_upper,
    two_tangle,
    wclass_roots,
)

__version__ = "0.1.0"
