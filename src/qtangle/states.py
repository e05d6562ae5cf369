"""Named-state factories: GHZ/W superpositions, the nine four-qubit
normal-form families, and the seeded random sampler that dresses a normal
form with determinant-1 local operators.

Normal forms and sampled states are built for a whole stack of parameter
rows or draws at once; ``normal_form`` and ``random_slocc_state`` are
one-row calls of the same code."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import PureState, _local_images, _unit_rows

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


# The nine normal-form patterns, one row of terms per family: each term is
# its value, a function of the parameter columns a, b, c, d up to the
# family's arity, and the basis states it sits at (qubit 1 the most
# significant bit). No basis state appears twice in a pattern.
_PATTERNS = {
    1: (
        (lambda a, b, c, d: (a + d) / 2, (0b0000, 0b1111)),
        (lambda a, b, c, d: (a - d) / 2, (0b0011, 0b1100)),
        (lambda a, b, c, d: (b + c) / 2, (0b0101, 0b1010)),
        (lambda a, b, c, d: (b - c) / 2, (0b0110, 0b1001)),
    ),
    2: (
        (lambda a, b, c: (a + b) / 2, (0b0000, 0b1111)),
        (lambda a, b, c: (a - b) / 2, (0b0011, 0b1100)),
        (lambda a, b, c: c, (0b0101, 0b1010)),
        (lambda a, b, c: 1.0, (0b0110,)),
    ),
    3: (
        (lambda a, b: a, (0b0000, 0b1111)),
        (lambda a, b: b, (0b0101, 0b1010)),
        (lambda a, b: 1.0, (0b0110, 0b0011)),
    ),
    4: (
        (lambda a, b: a, (0b0000, 0b1111)),
        (lambda a, b: (a + b) / 2, (0b0101, 0b1010)),
        (lambda a, b: (a - b) / 2, (0b0110, 0b1001)),
        (lambda a, b: 1.0j / np.sqrt(2), (0b0001, 0b0010, 0b0111, 0b1011)),
    ),
    5: (
        (lambda a: a, (0b0000, 0b0101, 0b1010, 0b1111)),
        (lambda a: 1.0j, (0b0001,)),
        (lambda a: 1.0, (0b0110,)),
        (lambda a: -1.0j, (0b1011,)),
    ),
    6: (
        (lambda a: a, (0b0000, 0b1111)),
        (lambda a: 1.0, (0b0011, 0b0101, 0b0110)),
    ),
    7: ((lambda: 1.0, (0b0000, 0b0101, 0b1000, 0b1110)),),
    8: ((lambda: 1.0, (0b0000, 0b1011, 0b1101, 0b1110)),),
    9: ((lambda: 1.0, (0b0000, 0b0111)),),
}


def normal_forms(cls: int, values) -> tuple[np.ndarray, np.ndarray]:
    """Normalized normal forms (S, 16) of one family for parameter rows
    (S, arity) in a, b, c, d order, and which rows are valid: real parts
    nonnegative, as NormalFormParams requires, and a pattern whose norm is
    finite and not below 1e-12. Every normal form is built here;
    invalid rows are not usable amplitudes."""
    cls = _check_class(cls)
    values = np.asarray(values, dtype=complex)
    if values.ndim != 2 or values.shape[1] != CLASS_ARITY[cls]:
        raise ValueError(f"class {cls} takes rows of {CLASS_ARITY[cls]} parameters, got {values.shape}")
    amps = np.zeros((len(values), 16), dtype=complex)
    for value, indices in _PATTERNS[cls]:
        # Added to zero, not assigned: a -0.0 part of a value ends up +0.0.
        amps[:, indices] += np.reshape(value(*values.T), (-1, 1))
    unit, _, ok = _unit_rows(amps)
    return unit, ok & ~(values.real < 0).any(axis=1)


def _valid_normal_forms(cls: int, values) -> np.ndarray:
    """``normal_forms`` of rows that must all be valid."""
    amps, ok = normal_forms(cls, values)
    if not ok.all():
        raise ValueError(f"class-{cls} pattern vanishes or is not finite for the given parameters")
    return amps


def normal_form(cls: int, params: NormalFormParams = NormalFormParams()) -> PureState:
    """Normalized normal-form representative of one of the nine families."""
    cls = _check_class(cls)
    amps = _valid_normal_forms(cls, [params.as_tuple(CLASS_ARITY[cls])])
    return PureState(n_qubits=4, amplitudes=amps[0])


def sample_seed(master_seed: int, cls: int, index: int) -> np.random.SeedSequence:
    """Fixed splittable mixing of (master seed, class, sample index)."""
    return np.random.SeedSequence([int(master_seed), int(cls), int(index)])


class SloccDraw(NamedTuple):
    """One sample's random numbers, in its stream's order: the normal-form
    parameters (Re ~ U[0, 1], Im ~ U[-1, 1]; a, b, c, d order) and the first
    draw of each of the four local operators (standard complex Gaussian
    entries; operator, real/imaginary part, row, column). ``rng`` is the
    stream after them, continued by an operator whose first draw is
    singular."""

    seq: np.random.SeedSequence
    params: np.ndarray  # (arity,) complex
    gaussians: np.ndarray  # (4, 2, 2, 2)
    rng: np.random.Generator


def draw_slocc(cls: int, seed: int | np.random.SeedSequence) -> SloccDraw:
    """One sample's own random stream, drawn in a fixed order: the
    normal-form parameters, then the four local operators."""
    cls = _check_class(cls)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    rng = np.random.default_rng(seq)
    # The doubles rng.uniform(0, 1) and rng.uniform(-1, 1) draw for Re and Im
    # of each parameter in turn, with their arithmetic low + (high - low) u.
    u = rng.random(2 * CLASS_ARITY[cls])
    u[1::2] = u[1::2] * 2.0 - 1.0
    return SloccDraw(seq, u.view(complex), rng.normal(0.0, np.sqrt(0.5), (4, 2, 2, 2)), rng)


def _det1(gaussians: np.ndarray) -> tuple[np.ndarray, list]:
    """Operators (N, 2, 2) of drawn blocks (N, 2, 2, 2) rescaled to
    determinant 1, and whether each block was accepted (|det| >= 1e-6)."""
    m = gaussians[:, 0] + 1j * gaussians[:, 1]
    det = np.linalg.det(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        ops = m * (det ** (-0.5))[:, None, None]
    return ops, [abs(d) >= 1e-6 for d in det.tolist()]


_MAX_REDRAWS = 100


def _redraw_operators(draw: SloccDraw) -> np.ndarray:
    """The four operators (4, 2, 2) of a draw with a singular first draw:
    operator by operator, each takes the first accepted of up to _MAX_REDRAWS
    blocks, from the first draws in order and then from a copy of the draw's
    stream, so that a draw gives the same operators every time."""
    blocks = list(draw.gaussians)
    rng = copy.deepcopy(draw.rng)
    ops = []
    for _ in range(4):
        for _ in range(_MAX_REDRAWS):
            block = blocks.pop(0) if blocks else rng.normal(0.0, np.sqrt(0.5), (2, 2, 2))
            op, accepted = _det1(block[None])
            if accepted[0]:
                ops.append(op[0])
                break
        else:
            raise RuntimeError(f"rejected {_MAX_REDRAWS} singular draws in a row; RNG looks broken")
    return np.array(ops)


def dress(cls: int, draws: list) -> tuple[np.ndarray, np.ndarray]:
    """Normalized amplitudes (S, 16) of drawn samples of one class
    (``draw_slocc`` results), and their det-1 operators (S, 4, 2, 2): the
    normal forms, the operators and their action on the normal forms, each
    for the whole stack at once."""
    ops, accepted = _det1(np.reshape([d.gaussians for d in draws], (-1, 2, 2, 2)))
    ops = ops.reshape(-1, 4, 2, 2)
    for i in np.flatnonzero(~np.reshape(accepted, (-1, 4)).all(axis=1)):
        ops[i] = _redraw_operators(draws[i])
    base = _valid_normal_forms(cls, np.array([d.params for d in draws]))
    images = _local_images(base, ops)
    amps, norms, ok = _unit_rows(images)
    if not ok.all():
        bad = norms[np.argmin(ok)]
        raise ValueError(f"a dressed state has norm {bad}, which cannot be normalized")
    return amps, ops


def random_slocc_state(
    cls: int, seed: int | np.random.SeedSequence
) -> tuple[PureState, SloccProvenance]:
    """Random member of a SLOCC class: det-1 local operators on a random
    normal form, fully determined by the seed. The one-state view of
    ``draw_slocc`` and ``dress``."""
    cls = _check_class(cls)
    draw = draw_slocc(cls, seed)
    amps, ops = dress(cls, [draw])
    prov = SloccProvenance(
        slocc_class=cls,
        seed_key=tuple(int(x) for x in np.atleast_1d(draw.seq.entropy)),
        params=NormalFormParams(*draw.params.tolist()),
        operators=tuple(ops[0]),
    )
    return PureState(n_qubits=4, amplitudes=amps[0]), prov
