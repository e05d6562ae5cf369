"""Tangle measures and strong-monogamy verification for few-qubit states."""

from .monogamy import residual_columns, tangle_report
from .qstate import PureState, state_from_json
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
from .tangles import TangleColumns, tangle_columns

__version__ = "0.1.0"
