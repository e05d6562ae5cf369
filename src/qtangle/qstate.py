"""Few-qubit state containers and the linear-algebra primitives built on them.

Conventions used throughout the package:

* qubits are numbered 1..n, with qubit 1 the most significant bit of the
  computational-basis index, so ``|1000>`` of four qubits sits at index 8;
* state factories normalize their input and keep the original norm around
  for diagnostics instead of rejecting unnormalized vectors.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Tolerances, loosest to tightest. RANK_TOL is applied to computed spectra: in
# production the squared singular values of 8x2 triple-by-rest reshapes.
RANK_TOL = 1e-8
PSD_TOL = 1e-10
HERM_TOL = 1e-12

MIN_QUBITS = 2
MAX_QUBITS = 8


class RankError(ValueError):
    """Effective rank of a density matrix exceeds what the caller allows."""


def _phase_fix(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate a global phase so the first nonzero component is real positive;
    a stack of vectors is fixed along its last axis."""
    big = np.abs(v) > tol
    pivot = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)
    pivot = np.where(big.any(axis=-1, keepdims=True), pivot, 1.0)
    return v * (pivot.conjugate() / np.abs(pivot))


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``n_qubits`` qubits (2..8)."""

    n_qubits: int
    amplitudes: np.ndarray
    original_norm: float = 1.0

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex], n_qubits: int | None = None) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if n_qubits is None:
            n_qubits = int(round(np.log2(amps.size)))
        if not (MIN_QUBITS <= n_qubits <= MAX_QUBITS):
            raise ValueError(f"n_qubits={n_qubits} outside supported range {MIN_QUBITS}..{MAX_QUBITS}")
        if amps.size != 2**n_qubits:
            raise ValueError(f"amplitude vector has length {amps.size}, expected {2**n_qubits}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitude vector has non-finite entries")
        norm = float(np.linalg.norm(amps))
        if norm < 1e-12:
            raise ValueError("zero amplitude vector")
        return cls(n_qubits=n_qubits, amplitudes=amps / norm, original_norm=norm)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def projector(self) -> "DensityMatrix":
        return DensityMatrix.from_entries(np.outer(self.amplitudes, self.amplitudes.conj()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator."""

    dim: int
    entries: np.ndarray

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "DensityMatrix":
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace is {tr}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -PSD_TOL:
            raise ValueError(f"matrix is not PSD: smallest eigenvalue {evals[0]}")
        return cls(dim=m.shape[0], entries=m)

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.dim)))


@dataclass(frozen=True)
class Rank2Decomposition:
    """Spectral form ``lam |e1><e1| + (1 - lam) |e2><e2|`` of a rank-2 state.

    For a pure input ``lam`` is 1 (flagged via ``pure``) and ``e2`` is an
    arbitrary unit vector orthogonal to ``e1``.
    """

    lam: float
    e1: np.ndarray
    e2: np.ndarray
    pure: bool
    dim: int

    def reconstruct(self) -> np.ndarray:
        return self.lam * np.outer(self.e1, self.e1.conj()) + (1.0 - self.lam) * np.outer(
            self.e2, self.e2.conj()
        )


def _check_keep(keep: Iterable[int], n: int) -> tuple[int, ...]:
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    if any(k < 1 or k > n for k in keep):
        raise ValueError(f"qubit index out of range in keep={keep} for n={n}")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError(f"keep={keep} must be strictly increasing")
    if len(keep) == n:
        raise ValueError("keep must be a strict subset (identity partial trace is a caller bug)")
    return keep


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubits, in the induced bit ordering."""
    n = state.n_qubits
    keep = _check_keep(keep, n)
    traced = [q - 1 for q in range(1, n + 1) if q not in keep]
    psi = state.amplitudes.reshape((2,) * n)
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced)).reshape(2 ** len(keep), -1)
    rho = 0.5 * (rho + rho.conj().T)  # scrub roundoff asymmetry
    return DensityMatrix.from_entries(rho)


def rank2_decompose(rho: DensityMatrix) -> Rank2Decomposition:
    """Spectral decomposition of an (at most) rank-2 density matrix.

    Raises RankError when a third eigenvalue exceeds the rank tolerance.
    """
    evals, evecs = np.linalg.eigh(rho.entries)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if rho.dim > 2 and evals[2] >= RANK_TOL:
        raise RankError(f"effective rank > 2: third eigenvalue {evals[2]:.3e} >= {RANK_TOL}")
    lam = float(np.clip(evals[0], 0.5, 1.0))
    e1 = _phase_fix(evecs[:, 0])
    e2 = _phase_fix(evecs[:, 1])
    pure = bool(evals[1] < RANK_TOL)
    return Rank2Decomposition(lam=lam, e1=e1, e2=e2, pure=pure, dim=rho.dim)


def apply_local_operators(psi: PureState, ops: Sequence[np.ndarray]) -> PureState:
    """Normalized image of ``(A_1 x ... x A_n)|psi>`` for invertible 2x2 A_k."""
    n = psi.n_qubits
    if len(ops) != n:
        raise ValueError(f"expected {n} local operators, got {len(ops)}")
    mats = [np.asarray(a, dtype=complex) for a in ops]
    for k, a in enumerate(mats):
        if a.shape != (2, 2):
            raise ValueError(f"operator {k + 1} has shape {a.shape}, expected (2, 2)")
        if abs(np.linalg.det(a)) < 1e-12:
            raise ValueError(f"operator {k + 1} is singular within tolerance")
    t = psi.amplitudes.reshape((2,) * n)
    for k, a in enumerate(mats):
        t = np.moveaxis(np.tensordot(a, t, axes=([1], [k])), 0, k)
    return PureState.from_amplitudes(t.ravel(), n_qubits=n)


def state_to_json(psi: PureState, path=None) -> str:
    text = json.dumps(psi.to_json_dict())
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def state_from_json_dict(obj: dict) -> PureState:
    try:
        n = int(obj["n"])
        raw = obj["amplitudes"]
        amps = np.array([complex(re, im) for re, im in raw])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    if amps.size != 2**n:
        raise ValueError(f"state file declares n={n} but has {amps.size} amplitudes")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"input state norm {norm:.8f} deviates from 1; normalizing", stacklevel=2)
    return PureState.from_amplitudes(amps, n_qubits=n)


def state_from_json(path) -> PureState:
    with open(path) as fh:
        obj = json.load(fh)
    return state_from_json_dict(obj)
