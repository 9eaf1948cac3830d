"""Pure n-qubit states (n = 1..4) and their Cayley-Dickson pair encodings.

Qubit 0 is the most significant bit: the amplitude of |b0 b1 ... b(n-1)> sits
at index b0*2**(n-1) + ... + b(n-1).  A state maps to a pair (u1, u2) of
level-n elements; u1 collects the amplitudes with qubit 0 in |0>, u2 those
with qubit 0 in |1>.  Amplitude k occupies complex slot (k mod 2**(n-1)) of
its half, conjugated in the even-parity slots described at _PAIR_SIGNS below
so that the base-map coordinates reproduce the closed-form entanglement
results for every qubit count.
"""

import json
import os

import numpy as np

from .cdnum import CDElement, _is_int, _is_pun, _mul, _norm_sq, _pow2_scaled, _slot_sums

MAX_QUBITS = 4

NORM_TOL_INPUT = 1e-6
# A squared norm below this is the zero vector, whatever the norm window.
DEGENERATE_NORM_SQ = 1e-24


class StateError(ValueError):
    """Base class for state validation failures."""


class ShapeError(StateError):
    """Amplitude vector has the wrong length or qubit count is unsupported."""


class DegenerateStateError(StateError):
    """Amplitude vector is (numerically) the zero vector."""


class NormalizationError(StateError):
    """State is not normalized and no rescale was requested."""


def _check_qubit_count(n):
    if not (_is_int(n) and 1 <= n <= MAX_QUBITS):
        raise ShapeError(f"qubit count must be an integer in 1..{MAX_QUBITS}, got {n!r}")


def _check_natural(name, value):
    if not (_is_int(value) and value >= 0):
        raise StateError(f"{name} must be a nonnegative integer, got {value!r}")


class QubitState:
    """Pure state: qubit count n and 2**n complex amplitudes of unit norm.
    The constructor checks and copies an outside vector; ``_trusted`` wraps
    one the library computed, without a copy or a check."""

    __slots__ = ("n", "amps")

    def __init__(self, n, amps):
        arr = _amplitude_vector(n, amps)
        # Past the float range the squared norm is inf, which fails the window.
        with np.errstate(over="ignore"):
            total = _norm_sq(arr)
        if total < DEGENERATE_NORM_SQ:
            raise DegenerateStateError("amplitude vector is numerically zero")
        if abs(total - 1.0) >= NORM_TOL_INPUT:
            raise NormalizationError(
                f"squared norm is {total!r}, not 1; pass normalize=True to rescale"
            )
        self._hold(n, arr)

    def _hold(self, n, amps):
        amps.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("QubitState is immutable")

    @classmethod
    def _trusted(cls, n, amps):
        # No copy, no check: amps is 2**n complex128 values the library
        # computed, a unit vector but for conformance_rows' as-printed Phi2.
        state = object.__new__(cls)
        state._hold(n, amps)
        return state

    def __repr__(self):
        return f"QubitState(n={self.n})"


def _amplitude_vector(n, amps):
    # An outside vector as a new complex128 array of 2**n finite entries.
    if _is_pun(amps):
        raise StateError("amplitudes must be numbers, not booleans, strings or bytes")
    try:
        arr = np.array(amps, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise StateError("amplitudes must be numbers") from None
    _check_qubit_count(n)
    if arr.shape != (1 << n,):
        raise ShapeError(f"{n} qubits need {1 << n} amplitudes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise StateError("amplitudes must be finite")
    return arr


def make_state(n, amps, normalize=False):
    """Validate (and optionally rescale) an amplitude vector into a QubitState.

    Without ``normalize`` this is ``QubitState(n, amps)``: the squared norm
    must sit within 1e-6 of 1 and the amplitudes are stored verbatim, so
    round-trips through the text formats stay bit-exact; a squared norm
    below 1e-24 is rejected as numerically zero.  With ``normalize`` any
    nonzero finite vector, at any scale the floats hold, is rescaled to unit
    norm; only the zero vector is rejected.
    """
    if not normalize:
        return QubitState(n, amps)
    # Scaled by the power of two of the largest real or imaginary part first,
    # so for inputs whose norm is in range unit / norm keeps every bit.
    unit = _pow2_scaled(_amplitude_vector(n, amps))[0]
    norm = np.sqrt(_norm_sq(unit))
    if norm == 0.0:
        raise DegenerateStateError("amplitude vector is zero")
    return QubitState._trusted(n, unit / norm)


class PairEncoding:
    """The two level-n elements (u1, u2) a state encodes to."""

    __slots__ = ("n", "u1", "u2")

    def __init__(self, n, u1, u2):
        self.n = n
        self.u1 = u1
        self.u2 = u2


# Complex slot j of a half stores the amplitude conjugated exactly when j has
# an even, nonzero number of set bits (slot 3 at n = 3; slots 3, 5, 6 at
# n = 4).  This parity pattern is forced by requiring the scalar complex slot
# of u2 * conj(u1) to accumulate sum_k a[2nd half][k] * conj(a[1st half][k])
# uniformly across slots, which makes the base-map invariant equal
# 4*det(rho) of the leading qubit and sends every one-vs-rest product state
# to the boundary sphere (both facts are locked in by the test suite).
# _PAIR_SIGNS[n] holds the rule as signs on a half's interleaved (re, im)
# coefficients: -1 on the imaginary part of each conjugated slot, +1 elsewhere.
_PAIR_SIGNS = {
    n: np.array([
        [1.0, -1.0 if j and bin(j).count("1") % 2 == 0 else 1.0] for j in range(1 << (n - 1))
    ]).ravel()
    for n in range(1, MAX_QUBITS + 1)
}


def _encode_pairs(amps):
    """The (u1, u2) coefficient arrays, each (N, 2**n), of (N, 2**n) amplitudes."""
    n = amps.shape[-1].bit_length() - 1
    coeffs = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
    pairs = coeffs.reshape(-1, 2, 1 << n) * _PAIR_SIGNS[n]
    return pairs[:, 0], pairs[:, 1]


def encode_pair(state):
    """Encode a state into its (u1, u2) Cayley-Dickson pair."""
    u1, u2 = _encode_pairs(state.amps[None])
    return PairEncoding(state.n, CDElement(state.n, u1[0]), CDElement(state.n, u2[0]))


def decode_pair(enc):
    """Invert encode_pair back to the amplitude vector (exact, slot-wise)."""
    _check_qubit_count(enc.n)
    if not enc.u1.level == enc.u2.level == enc.n:
        raise ShapeError(
            f"{enc.n} qubits need two level-{enc.n} elements, "
            f"got levels {enc.u1.level} and {enc.u2.level}"
        )
    coeffs = np.stack([enc.u1.coeffs, enc.u2.coeffs]) * _PAIR_SIGNS[enc.n]
    return QubitState(enc.n, coeffs.reshape(-1).view(np.complex128))


def permute_qubits(state, perm):
    """Reindex amplitudes so original qubit perm[j] occupies position j."""
    n = state.n
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(n)):
        raise StateError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    t = state.amps.reshape((2,) * n)
    return QubitState._trusted(n, np.transpose(t, axes=perm).reshape(-1))


# _FRONT[n][q]: the amplitude indices with qubit q first, the others in order.
_FRONT = {
    n: np.stack([np.moveaxis(np.arange(1 << n).reshape((2,) * n), q, 0).ravel() for q in range(n)])
    for n in range(1, MAX_QUBITS + 1)
}


def bring_to_front(state, qubit):
    """Permutation helper: move one qubit into role 0, others keep their order."""
    if not (_is_int(qubit) and 0 <= qubit < state.n):
        raise StateError(f"qubit index {qubit!r} out of range for n={state.n}")
    return QubitState._trusted(state.n, state.amps[_FRONT[state.n][qubit]])


# numpy's SeedSequence hash: its constants, 32-bit words and the four-word
# pool it mixes them into.  The algorithm is fixed by numpy's stream
# compatibility policy; tests compare _philox_keys with SeedSequence itself.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_steps(const, mult):
    # The (xor, multiply) constants of successive hash steps: each step
    # multiplies the hash constant by `mult` between its xor and its multiply.
    while True:
        step = const * mult & _MASK32
        yield const, step
        const = step


def _hashmix(value, xor, mul):
    # On uint64 arrays holding 32-bit words.
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _words(value):
    # The little-endian 32-bit words of a nonnegative integer; 0 is one word.
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _step_array(steps, count):
    # The next `count` steps as (xor, multiply) uint64 columns of shape (count, 1).
    xor, mul = np.array([next(steps) for _ in range(count)], dtype=np.uint64).T
    return xor[:, None], mul[:, None]


# generate_state's steps, one per output word: four words make two uint64 keys.
_OUTPUT_STEPS = _step_array(_hash_steps(_INIT_B, _MULT_B), _POOL_SIZE)


def _philox_keys(seed, indices):
    """The (N, 2) uint64 Philox keys of SeedSequence(entropy=seed,
    spawn_key=(index,)).generate_state(2, np.uint64), one row per index.

    A keyed sequence mixes the seed's words into its pool exactly as
    SeedSequence(seed) does, and only then the spawn key's, so every row
    starts from that one pool.  The hash constants do not depend on the data,
    so each spawn word is then mixed into the four pool words of every index
    at once, as (4, N) uint64 arrays of 32-bit words.  A row whose index has
    fewer words than the widest one keeps its pool once its own words run out.
    """
    _check_natural("seed", seed)
    seed = int(seed)
    index = [int(i) for i in indices]
    if min(index, default=0) < 0:
        raise ValueError("expected non-negative integer")
    # The seed took one hash step per pool word for each of its words, and
    # for at least as many words as the pool holds.
    taken = _POOL_SIZE * max(_POOL_SIZE, len(_words(seed)))
    steps = _hash_steps(_INIT_A * pow(_MULT_A, taken, 1 << 32) & _MASK32, _MULT_A)
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    for k in range(len(_words(max(index, default=0)))):
        word = np.array([i >> 32 * k & _MASK32 for i in index], dtype=np.uint64)
        has_word = np.array([k == 0 or i >> 32 * k > 0 for i in index], dtype=bool)
        mixed = _mix(pool, _hashmix(word, *_step_array(steps, _POOL_SIZE)))
        pool = np.where(has_word, mixed, pool)
    # Four 32-bit output words per row, read as two little-endian uint64s.
    out = _hashmix(pool, *_OUTPUT_STEPS)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


def _random_amplitudes(n, seed, indices):
    """Haar-random amplitudes, one (2**n,) row per index, as an (N, 2**n) array.

    Row ``index`` draws 2**n real then 2**n imaginary standard Gaussians from
    Philox keyed by SeedSequence(entropy=seed, spawn_key=(index,)), in one
    standard_normal call (the same numbers as two calls of half the size),
    and is normalized.  Every row re-keys one Philox with its key from
    _philox_keys, a zero counter and an empty buffer, the state a new Philox
    starts in.  The generator is local to the call, so concurrent calls share
    no state.
    """
    _check_qubit_count(n)
    m = 1 << n
    keys = _philox_keys(seed, indices)
    z = np.empty((len(keys), 2, m))
    # Its seed is never drawn from: every row sets the whole state.
    bitgen = np.random.Philox(0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    normal = np.random.Generator(bitgen).standard_normal
    for key, row in zip(keys.tolist(), z):
        state["state"]["key"] = key
        bitgen.state = state
        normal(out=row)
    amps = z[:, 0] + 1j * z[:, 1]
    sq = _slot_sums(np.square(z.T))
    return amps / np.sqrt(sq[0] + sq[1])[:, None]


def random_state(n, seed, index=0):
    """Haar-random pure state: i.i.d. standard complex Gaussians, normalized.

    The generator is counter-based and keyed by (seed, index), so drawing
    sample ``index`` never depends on how many other samples were drawn.
    """
    _check_natural("index", index)
    return QubitState._trusted(n, _random_amplitudes(n, seed, [index])[0])


def _uniform(n, indices):
    # The equal superposition of the basis states at these amplitude indices.
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[indices] = 1 / np.sqrt(len(indices))
    return QubitState._trusted(n, amps)


def basis_state(n, bits):
    """Computational basis state |bits>, bits a string of n characters 0 or 1."""
    _check_qubit_count(n)
    if not (isinstance(bits, str) and len(bits) == n and set(bits) <= {"0", "1"}):
        raise ShapeError(f"{n} qubits need a string of {n} bits, got {bits!r}")
    return _uniform(n, [int(bits, 2)])


def bell_state():
    return ghz_state(2)


def ghz_state(n):
    _check_qubit_count(n)
    return _uniform(n, [0, (1 << n) - 1])


def w_state(n):
    """Single-excitation symmetric state (|10..0> + |01..0> + ... )/sqrt(n)."""
    _check_qubit_count(n)
    return _uniform(n, [1 << q for q in range(n)])


def product_state(factors):
    """Tensor product of per-qubit amplitude pairs, most significant first.
    The factor count is checked first, then each factor as a one-qubit vector
    scaled as make_state scales.  Amplitude i of each partial product is the
    level-1 _mul of the previous one's amplitude i // 2 and the factor's i % 2."""
    _check_qubit_count(len(factors))
    amps = np.array([[1.0, 0.0]])
    for f in factors:
        pair = _pow2_scaled(_amplitude_vector(1, f))[0].view(np.float64).reshape(2, 2)
        amps = _mul(np.repeat(amps, 2, axis=0), np.tile(pair, (len(amps), 1)))
    return make_state(len(factors), amps.copy().view(np.complex128).ravel(), normalize=True)


def state_to_json(state):
    """Serialize to the interchange format: {"n": ..., "amplitudes": [[re, im], ...]}.

    Floats are written with repr precision (up to 17 significant digits), so
    loading the text reproduces the amplitudes bit for bit.
    """
    pairs = state.amps.view(np.float64).reshape(-1, 2).tolist()
    return json.dumps({"n": state.n, "amplitudes": pairs})


def state_from_json(text, normalize=False):
    """Parse the interchange format; validates shape and normalization."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StateError(f"invalid state file: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "amplitudes" not in obj:
        raise StateError('state file must be an object with "n" and "amplitudes"')
    pairs = obj["amplitudes"]
    try:
        # complex() takes a bool as 0 or 1; JSON true/false is no amplitude.
        if any(_is_pun(pair) for pair in pairs):
            raise TypeError
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError):
        raise StateError("state file amplitudes must be [re, im] pairs") from None
    except OverflowError:
        raise StateError("state file amplitude is out of the float range") from None
    return make_state(obj["n"], amps, normalize=normalize)


# Paths only: open() reads an int, True included, as a descriptor to close.
# A NUL byte in the path, or text that is not UTF-8, raises a ValueError.
def read_state_file(path, normalize=False):
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, TypeError, ValueError) as exc:
        raise StateError(f"cannot read state file {path}: {exc}") from None
    return state_from_json(text, normalize=normalize)


def write_state_file(state, path):
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))
        fh.write("\n")
