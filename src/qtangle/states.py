"""Named-state factories: GHZ/W superpositions, the nine four-qubit
normal-form families, and the seeded random sampler that dresses a normal
form with determinant-1 local operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import PureState, _local_images, apply_local_operators

# Number of complex parameters each normal-form family takes (a, b, c, d order).
CLASS_ARITY = {1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1, 7: 0, 8: 0, 9: 0}
_PARAM_NAMES = ("a", "b", "c", "d")


def _check_class(cls: int) -> int:
    if cls not in CLASS_ARITY:
        raise ValueError(f"SLOCC class must be 1..9, got {cls}")
    return cls


@dataclass(frozen=True)
class NormalFormParams:
    """Complex parameters of a normal-form family; real parts nonnegative.

    Slots beyond the family's arity are ignored.
    """

    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0

    def __post_init__(self):
        for name in _PARAM_NAMES:
            if complex(getattr(self, name)).real < 0:
                raise ValueError(f"parameter {name} must have nonnegative real part")

    def as_tuple(self, arity: int) -> tuple:
        return tuple(complex(getattr(self, n)) for n in _PARAM_NAMES[:arity])


@dataclass(frozen=True)
class GhzwParams:
    """Coefficients of ``alpha |0..0> + beta |W_n> + gamma |1..1>``."""

    n: int
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("GhzwParams requires n >= 3")
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2 + abs(self.gamma) ** 2
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"|alpha|^2+|beta|^2+|gamma|^2 = {total}, expected 1")


@dataclass(frozen=True)
class SloccProvenance:
    """Everything needed to regenerate a sampled state."""

    slocc_class: int
    seed_key: tuple
    params: NormalFormParams
    operators: tuple  # four 2x2 complex matrices, det 1

    def to_json_dict(self) -> dict:
        return {
            "class": self.slocc_class,
            "seed_key": list(self.seed_key),
            "params": {
                n: [getattr(self.params, n).real, getattr(self.params, n).imag]
                for n in _PARAM_NAMES[: CLASS_ARITY[self.slocc_class]]
            },
            "operators": [
                [[float(x.real), float(x.imag)] for x in op.ravel()] for op in self.operators
            ],
        }


def ghz(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0
    return PureState.from_amplitudes(amps, n_qubits=n)


def w(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[2**k] = 1.0
    return PureState.from_amplitudes(amps, n_qubits=n)


def ghzw(p: GhzwParams) -> PureState:
    """alpha |0..0> + beta |W_n> + gamma |1..1>, normalized."""
    n = p.n
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = p.alpha
    amps[-1] = p.gamma
    for k in range(n):
        amps[2**k] += p.beta / np.sqrt(n)
    return PureState.from_amplitudes(amps, n_qubits=n)


def _bits(*strings: str) -> list[int]:
    return [int(s, 2) for s in strings]


def _normal_form_pattern(cls: int, pv: tuple) -> np.ndarray:
    amps = np.zeros(16, dtype=complex)

    def put(value: complex, *strings: str) -> None:
        for idx in _bits(*strings):
            amps[idx] += value

    if cls == 1:
        a, b, c, d = pv
        put((a + d) / 2, "0000", "1111")
        put((a - d) / 2, "0011", "1100")
        put((b + c) / 2, "0101", "1010")
        put((b - c) / 2, "0110", "1001")
    elif cls == 2:
        a, b, c = pv
        put((a + b) / 2, "0000", "1111")
        put((a - b) / 2, "0011", "1100")
        put(c, "0101", "1010")
        put(1.0, "0110")
    elif cls == 3:
        a, b = pv
        put(a, "0000", "1111")
        put(b, "0101", "1010")
        put(1.0, "0110", "0011")
    elif cls == 4:
        a, b = pv
        put(a, "0000", "1111")
        put((a + b) / 2, "0101", "1010")
        put((a - b) / 2, "0110", "1001")
        put(1.0j / np.sqrt(2), "0001", "0010", "0111", "1011")
    elif cls == 5:
        (a,) = pv
        put(a, "0000", "0101", "1010", "1111")
        put(1.0j, "0001")
        put(1.0, "0110")
        put(-1.0j, "1011")
    elif cls == 6:
        (a,) = pv
        put(a, "0000", "1111")
        put(1.0, "0011", "0101", "0110")
    elif cls == 7:
        put(1.0, "0000", "0101", "1000", "1110")
    elif cls == 8:
        put(1.0, "0000", "1011", "1101", "1110")
    elif cls == 9:
        put(1.0, "0000", "0111")
    return amps


def normal_form(cls: int, params: NormalFormParams = NormalFormParams()) -> PureState:
    """Normalized normal-form representative of one of the nine families."""
    cls = _check_class(cls)
    amps = _normal_form_pattern(cls, params.as_tuple(CLASS_ARITY[cls]))
    if np.linalg.norm(amps) < 1e-12:
        raise ValueError(f"class-{cls} pattern vanishes for the given parameters")
    return PureState.from_amplitudes(amps, n_qubits=4)


def sample_seed(master_seed: int, cls: int, index: int) -> np.random.SeedSequence:
    """Fixed splittable mixing of (master seed, class, sample index)."""
    return np.random.SeedSequence([int(master_seed), int(cls), int(index)])


def random_normal_form_params(cls: int, rng: np.random.Generator) -> NormalFormParams:
    """Parameters with Re ~ U[0, 1] and Im ~ U[-1, 1], drawn in a, b, c, d order."""
    cls = _check_class(cls)
    values = {}
    for name in _PARAM_NAMES[: CLASS_ARITY[cls]]:
        values[name] = complex(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
    return NormalFormParams(**values)


def _random_sl2(rng: np.random.Generator, max_tries: int = 100) -> np.ndarray:
    """Standard-complex-Gaussian 2x2 matrix rescaled to determinant 1."""
    for _ in range(max_tries):
        m = rng.normal(0.0, np.sqrt(0.5), (2, 2)) + 1j * rng.normal(0.0, np.sqrt(0.5), (2, 2))
        det = np.linalg.det(m)
        if abs(det) >= 1e-6:
            return m * det ** (-0.5)
    raise RuntimeError(f"rejected {max_tries} singular draws in a row; RNG looks broken")


def draw_slocc(cls: int, seed: int | np.random.SeedSequence) -> tuple[PureState, SloccProvenance]:
    """One sample's own random stream, drawn in a fixed order: the
    normal-form parameters, then the four det-1 local operators. Returns
    the normal form before the operators act, and the provenance."""
    cls = _check_class(cls)
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(int(seed))
    rng = np.random.default_rng(seq)
    params = random_normal_form_params(cls, rng)
    base = normal_form(cls, params)
    ops = tuple(_random_sl2(rng) for _ in range(4))
    prov = SloccProvenance(
        slocc_class=cls,
        seed_key=tuple(int(x) for x in np.atleast_1d(seq.entropy)),
        params=params,
        operators=ops,
    )
    return base, prov


def dress(draws: list) -> np.ndarray:
    """Normalized amplitudes (S, 16) of drawn samples (``draw_slocc``
    results): every sample's operators applied at once, then each row
    normalized as ``PureState.from_amplitudes`` does."""
    images = _local_images(
        np.array([base.amplitudes for base, _ in draws]),
        np.array([prov.operators for _, prov in draws]),
    )
    return np.array([PureState.from_amplitudes(v, n_qubits=4).amplitudes for v in images])


def random_slocc_state(
    cls: int, seed: int | np.random.SeedSequence
) -> tuple[PureState, SloccProvenance]:
    """Random member of a SLOCC class: det-1 local operators on a random
    normal form, fully determined by the seed."""
    base, prov = draw_slocc(cls, seed)
    return apply_local_operators(base, prov.operators), prov
