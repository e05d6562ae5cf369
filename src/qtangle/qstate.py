"""The pure-state container, stacked amplitude-vector helpers, and the reader
of state files: JSON objects ``{"n": n, "amplitudes": [[re, im], ...]}``.

Conventions used throughout the package:

* qubits are numbered 1..n, with qubit 1 the most significant bit of the
  computational-basis index, so ``|1000>`` of four qubits sits at index 8;
* state factories normalize their input and keep the original norm around
  for diagnostics instead of rejecting unnormalized vectors.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The smallest norm of an amplitude vector that can be normalized by
# _unit_rows, the one normalizer of amplitude vectors.
ZERO_NORM = 1e-12

MIN_QUBITS = 2
MAX_QUBITS = 4


def _check_qubit_count(n: int) -> None:
    if not (MIN_QUBITS <= n <= MAX_QUBITS):
        raise ValueError(f"n_qubits={n} outside supported range {MIN_QUBITS}..{MAX_QUBITS}")


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``n_qubits`` qubits (2..4)."""

    n_qubits: int
    amplitudes: np.ndarray
    original_norm: float = 1.0

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex], n_qubits: int | None = None) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if n_qubits is None:
            n_qubits = amps.size.bit_length() - 1  # a size of 0 gives -1, out of range
        _check_qubit_count(n_qubits)
        if amps.size != 2**n_qubits:
            raise ValueError(f"amplitude vector has length {amps.size}, expected {2**n_qubits}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitude vector has non-finite entries")
        unit, norms, ok = _unit_rows(amps[None])
        norm = float(norms[0])
        if norm < ZERO_NORM:
            raise ValueError("zero amplitude vector")
        if not ok[0]:
            raise ValueError("amplitude vector's squared norm overflows")
        return cls(n_qubits=n_qubits, amplitudes=unit[0], original_norm=norm)


def _unit_rows(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of a complex stack (S, d) over its norm, the norms, and which
    rows are usable: a finite norm (finite entries whose squares do not
    overflow) of at least ZERO_NORM. The norm is the arithmetic of
    ``np.linalg.norm`` on one row, and the division that of one vector by its
    norm. ``PureState.from_amplitudes`` normalizes through it."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))
        return amps / norms[:, None], norms, np.isfinite(norms) & (norms >= ZERO_NORM)


def _local_images(amps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Unnormalized images ``(A_1 x ... x A_n)|psi>`` of a stack of n-qubit
    amplitude vectors (S, 2^n) under per-row operators (S, n, 2, 2): one
    stacked matrix product per qubit, each the BLAS call a single state's
    tensordot makes."""
    s, dim = amps.shape
    n = ops.shape[1]
    t = amps.reshape((s,) + (2,) * n)
    for k in range(n):
        rest = np.moveaxis(t, k + 1, 1).reshape(s, 2, -1)
        t = np.moveaxis((ops[:, k] @ rest).reshape((s,) + (2,) * n), 1, k + 1)
    return t.reshape(s, dim)


def state_from_json_dict(obj: dict) -> PureState:
    try:
        n, raw = obj["n"], obj["amplitudes"]
        # Checked, not coerced: a JSON integer n, and JSON numbers (not
        # booleans) in each [re, im] pair.
        if type(n) is not int:
            raise TypeError(f"n must be an integer, got {n!r}")
        if not all(type(x) in (int, float) for pair in raw for x in pair):
            raise TypeError("each amplitude must be a pair [re, im] of numbers")
        amps = np.array([complex(re, im) for re, im in raw])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    _check_qubit_count(n)  # before 2**n, which a huge n makes huge
    if amps.size != 2**n:
        raise ValueError(f"state file declares n={n} but has {amps.size} amplitudes")
    psi = PureState.from_amplitudes(amps, n_qubits=n)
    if abs(psi.original_norm - 1.0) > 1e-6:
        warnings.warn(
            f"input state norm {psi.original_norm:.8f} deviates from 1; normalizing", stacklevel=2
        )
    return psi


def state_from_json(path) -> PureState:
    with open(path) as fh:
        obj = json.load(fh)
    return state_from_json_dict(obj)
