import os

# One BLAS thread: the suite's linear algebra is thousands of tiny matrices,
# where a second OpenBLAS thread only contends for the other core. Set before
# numpy is first imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from qtangle import PureState


def random_pure_state(rng: np.random.Generator, n_qubits: int) -> PureState:
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureState.from_amplitudes(v, n_qubits=n_qubits)


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
