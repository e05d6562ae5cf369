"""Named-state factories: GHZ/W superpositions, the nine four-qubit
normal-form families, and the seeded random sampler that dresses a normal
form with determinant-1 local operators.

Normal forms and sampled states are built for a whole stack of parameter
rows or draws at once, and a stack's seeds are hashed at once;
``normal_form`` and ``random_slocc_state`` are one-row calls of the same
code. Every sample's stream is seeded by its four PCG64 words, and
``draw_samples`` returns a stack's normalized amplitudes and det-1
operators, each drawn operator block m rescaled to m det(m)^(-1/2),
whatever its determinant."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qstate import PureState, _check_qubit_count, _local_images, _unit_rows

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


def ghz(n: int) -> PureState:
    _check_qubit_count(n)  # before 2**n, which a huge n makes huge
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0
    return PureState.from_amplitudes(amps, n_qubits=n)


def w(n: int) -> PureState:
    _check_qubit_count(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[2 ** np.arange(n)] = 1.0
    return PureState.from_amplitudes(amps, n_qubits=n)


def ghzw(p: GhzwParams) -> PureState:
    """alpha |0..0> + beta |W_n> + gamma |1..1>, normalized."""
    n = p.n
    _check_qubit_count(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = p.alpha
    amps[-1] = p.gamma
    amps[2 ** np.arange(n)] = p.beta / np.sqrt(n)  # W's basis states, none |0..0> or |1..1>
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words filled by hashmix from the entropy words, mixed word into word,
# then read out by generate_state. Each hashmix call takes the next value of a
# hash constant; every product wraps modulo 2**32.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 successive values of a hash constant: init, times mult each step."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)


def _seed_hash(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each row e of an
    (S, n) uint32 entropy array, all rows at once. The hash runs over the
    pool's columns together: a source word mixes into the other three pool
    words with three consecutive hashmix calls, and it does not change while
    they do."""
    rows, n = entropy.shape
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(n, _POOL_SIZE))

    def hashmix(values: np.ndarray, call: int) -> np.ndarray:
        # Column j is hashed by call number call + j.
        k = values.shape[1]
        values = (values ^ hash_a[call : call + k]) * hash_a[call + 1 : call + 1 + k]
        return values ^ (values >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        values = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return values ^ (values >> 16)

    words = np.zeros((rows, max(n, _POOL_SIZE)), dtype=np.uint32)
    words[:, :n] = entropy  # a short entropy hashes zeros into the rest of the pool
    pool = hashmix(words[:, :_POOL_SIZE], 0)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, [src] * 3], _POOL_SIZE + 3 * src))
    for src in range(_POOL_SIZE, n):
        pool = mix(pool, hashmix(words[:, [src] * _POOL_SIZE], _POOL_SIZE * src))
    hash_b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ hash_b[:-1]) * hash_b[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32  # two words per uint64, the low one first


def _uint32_words(n: int) -> list:
    """A nonnegative integer as SeedSequence reads it: its 32-bit words, the
    least significant first; [0] for 0."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def sample_seed_words(master_seed: int, cls: int, indices) -> np.ndarray:
    """``sample_seed(master_seed, cls, i).generate_state(4, np.uint64)`` for
    each listed index i below 2**64, as an (S, 4) array: the PCG64 seed of
    each sample's stream, the seeds of the whole stack hashed at once. An
    index of one 32-bit word and one of two make entropies of different
    lengths, so each length is hashed in its own pass."""
    prefix = _uint32_words(int(master_seed)) + _uint32_words(int(cls))
    indices = np.asarray(indices, dtype=np.uint64).reshape(-1)
    entropy = np.empty((len(indices), len(prefix) + 2), dtype=np.uint32)
    entropy[:, : len(prefix)] = prefix
    entropy[:, -2], entropy[:, -1] = indices & 0xFFFFFFFF, indices >> 32
    two_words = entropy[:, -1] > 0
    words = np.empty((len(indices), 4), dtype=np.uint64)
    for rows, width in ((~two_words, -1), (two_words, None)):
        if rows.any():
            words[rows] = _seed_hash(entropy[rows, :width])
    return words


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence of one PCG64 whose four uint64 seed words are given.
    Made on first use: importing numpy.random takes about 13 ms, and only the
    sampler needs it."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if (n_words, np.dtype(dtype)) != (4, np.uint64):
                raise ValueError("seed words serve PCG64's request for 4 uint64 words only")
            return self.words

    return SeedWords


def _generator(seed: np.random.bit_generator.ISeedSequence) -> np.random.Generator:
    """A sample's stream: the generator ``np.random.default_rng(seed)`` builds."""
    return np.random.Generator(np.random.PCG64(seed))


def _params(uniforms) -> np.ndarray:
    """Normal-form parameters (S, arity) of drawn uniforms (S, 2 * arity):
    Re ~ U[0, 1] and Im ~ U[-1, 1], the doubles rng.uniform(0, 1) and
    rng.uniform(-1, 1) give for the same draws (low + (high - low) u)."""
    u = np.array(uniforms, dtype=float)
    u[:, 1::2] = u[:, 1::2] * 2.0 - 1.0
    return u.view(complex)


# The standard deviation of the real and of the imaginary part of an operator entry.
_SCALE = np.sqrt(0.5)


def _sample(cls: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized amplitudes (S, 16) and det-1 operators (S, 4, 2, 2) of one
    class's samples, each row of PCG64 seed words (S, 4) seeding one stream.
    Each stream is read in its fixed order: the normal-form parameters'
    uniform doubles (Re and Im of each parameter in turn, a, b, c, d order),
    then the four operators' standard complex Gaussian entries (operator,
    real/imaginary part, row, column). Then, for the whole stack at once,
    each Gaussian block m is rescaled to m det(m)^(-1/2) and acts on the
    normal forms. A block of determinant 0, which only a broken random
    stream draws, gives a non-finite state and so the ValueError below."""
    uniforms = np.empty((len(words), 2 * CLASS_ARITY[cls]))
    gaussians = np.empty((len(words), 4, 2, 2, 2))
    seed_words = _seed_words_type()
    for i, row in enumerate(words):
        rng = _generator(seed_words(row))
        uniforms[i] = rng.random(2 * CLASS_ARITY[cls])
        gaussians[i] = rng.normal(0.0, _SCALE, (4, 2, 2, 2))
    m = gaussians[:, :, 0] + 1j * gaussians[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ops = m * (np.linalg.det(m) ** -0.5)[..., None, None]
    base = _valid_normal_forms(cls, _params(uniforms))
    images = _local_images(base, ops)
    amps, norms, ok = _unit_rows(images)
    if not ok.all():
        bad = norms[np.argmin(ok)]
        raise ValueError(f"a dressed state has norm {bad}, which cannot be normalized")
    return amps, ops


def draw_samples(cls: int, master_seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Normalized amplitudes (S, 16) and det-1 operators (S, 4, 2, 2) of the
    listed indices' samples of a class, stacked: each stream seeded by the
    words of ``sample_seed(master_seed, cls, i)``, the seeds hashed for the
    whole stack at once."""
    cls = _check_class(cls)
    return _sample(cls, sample_seed_words(master_seed, cls, indices))


def random_slocc_state(cls: int, seed: np.random.SeedSequence) -> tuple[PureState, np.ndarray]:
    """Random member of a SLOCC class, fully determined by the seed (one of
    ``sample_seed``): the sampled state and its four det-1 local operators
    (4, 2, 2). The one-sample view of ``draw_samples``: the seed's four
    PCG64 words, the ones ``PCG64(seed)`` asks for, seed the same stream
    through the same ``_sample``."""
    amps, ops = _sample(_check_class(cls), seed.generate_state(4, np.uint64)[None])
    return PureState(n_qubits=4, amplitudes=amps[0]), ops[0]
