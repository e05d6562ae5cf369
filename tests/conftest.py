import os

# One BLAS thread: the suite's linear algebra is thousands of tiny matrices,
# where a second OpenBLAS thread only contends for the other core. Set before
# numpy is first imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from qtangle import PureState, states, tangle_columns
from qtangle.monogamy import MU3, _sm_reports
from qtangle.tangles import BoundColumns, TangleColumns


def random_pure_state(rng: np.random.Generator, n_qubits: int) -> PureState:
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureState.from_amplitudes(v, n_qubits=n_qubits)


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sm_reports(psis, mu3: float = MU3) -> list:
    """Each four-qubit state's four ``sm_report`` dicts, as ``tangle --json``
    prints them, from one engine call on the stack of the states."""
    cols = tangle_columns(np.array([psi.amplitudes for psi in psis]))

    def row(i):
        r = slice(i, i + 1)
        return TangleColumns(cols.tau1[r], cols.tau2[r], BoundColumns(*(c[r] for c in cols.tau3)))

    return [_sm_reports(row(i), mu3) for i in range(len(psis))]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


class SingularStart:
    """A random stream whose first ``zeros`` normal deviates are 0: with 8,
    the first local operator a sampler draws is singular. ``make`` is the
    generator constructor it replaces."""

    def __init__(self, make, seed, zeros):
        self._rng = make(seed)
        self._zeros = zeros

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)

    def normal(self, *args, **kwargs):
        out = np.array(self._rng.normal(*args, **kwargs))
        flat = out.reshape(-1)
        k = min(self._zeros, flat.size)
        flat[:k] = 0.0
        self._zeros -= k
        return out


def first_seed_word(seed) -> int:
    """The first PCG64 seed word of a seed sequence: it tells samples apart."""
    return int(seed.generate_state(4, np.uint64)[0])


def singular_streams(monkeypatch, zeros_of):
    """Start each sample's stream with ``zeros_of(seed)`` zero normal deviates
    (see SingularStart) in the package's sampler, whose every stream is built
    by ``states._generator``."""
    make = states._generator
    monkeypatch.setattr(
        states, "_generator", lambda seed: SingularStart(make, seed, zeros_of(seed))
    )
