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
    PureState,
    Rank2Decomposition,
    RankError,
    apply_local_operators,
    partial_trace,
    rank2_decompose,
    state_from_json,
    state_to_json,
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
    four_qubit_tangles,
    pure_tangles,
    three_tangle_pure,
    three_tangle_upper,
)

__version__ = "0.1.0"
