"""Pure n-qubit states (n = 1..4) and their Cayley-Dickson pair encodings.

Qubit 0 is the most significant bit: the amplitude of |b0 b1 ... b(n-1)> sits
at index b0*2**(n-1) + ... + b(n-1).  A state maps to a pair (u1, u2) of
level-n elements; u1 collects the amplitudes with qubit 0 in |0>, u2 those
with qubit 0 in |1>.  Amplitude k enters its half on complex slot
j = k mod 2**(n-1) as the product a_j * i_(2j), a_j = re + im*i_1, so each
half is u = sum_j a_j * i_(2j) and its signs are read off the algebra's sign
table.  Under cdnum's doubling rule that conjugates the slots j with a
nonzero, even number of set bits.
"""

import functools
import json
import math
import os
from operator import itemgetter

from .cdnum import (
    MAX_LEVEL, CDElement, _divided, _is_int, _is_pun, _mul, _norm_sq, _pow2_scaled, _sign_rows, np,
)

# n qubits encode at level n.
MAX_QUBITS = MAX_LEVEL

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
    one the library computed, without a copy or a check.

    The amplitudes are held as ``_parts``, a tuple of 2**(n+1) Python floats,
    each amplitude's real part and then its imaginary part, so that one
    state's analysis runs in Python floats and imports no numpy.  ``amps`` is
    the same vector as a read-only complex128 array, built on its first read
    and kept."""

    __slots__ = ("n", "_parts", "_amps")

    def __init__(self, n, amps):
        parts = _amplitude_parts(n, amps)
        _check_norm(parts)
        self._hold(n, parts, None)

    def _hold(self, n, parts, amps):
        # A Python int, whatever integer type n came as: JSON writes no numpy int.
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("QubitState is immutable")

    @property
    def amps(self):
        amps = self._amps
        if amps is None:
            amps = np.array(self._parts).view(np.complex128)
            amps.setflags(write=False)
            object.__setattr__(self, "_amps", amps)
        return amps

    @classmethod
    def _trusted(cls, n, amps):
        # No check: amps is 2**n amplitudes the library computed, a unit
        # vector but for conformance_rows' as-printed Phi2, given as a tuple
        # of parts or as a complex128 array, which becomes ``amps``.
        state = object.__new__(cls)
        if isinstance(amps, tuple):
            state._hold(n, amps, None)
        else:
            amps.setflags(write=False)
            state._hold(n, tuple(amps.view(np.float64).tolist()), amps)
        return state

    def __repr__(self):
        return f"QubitState(n={self.n})"


_NUMBERS = frozenset((int, float, complex))


def _amplitude_parts(n, amps):
    # An outside vector of 2**n finite entries as a new tuple of parts.  A
    # list or tuple of Python ints, floats and complex numbers converts as
    # numpy converts it, entry by entry through complex(), without numpy.
    if _is_pun(amps):
        raise StateError("amplitudes must be numbers, not booleans, strings or bytes")
    try:
        if isinstance(amps, (list, tuple)) and all(type(x) in _NUMBERS for x in amps):
            values, shape = [complex(x) for x in amps], (len(amps),)
        else:
            values = np.array(amps, dtype=np.complex128)
            shape = values.shape
    except (TypeError, ValueError, OverflowError):
        raise StateError("amplitudes must be numbers") from None
    _check_qubit_count(n)
    if shape != (1 << n,):
        raise ShapeError(f"{n} qubits need {1 << n} amplitudes, got shape {shape}")
    if not isinstance(values, list):
        values = values.tolist()
    parts = tuple(x for z in values for x in (z.real, z.imag))
    if not all(map(math.isfinite, parts)):
        raise StateError("amplitudes must be finite")
    return parts


def _check_norm(parts):
    # Past the float range the squared norm is inf, which fails the window.
    total = _norm_sq(parts[0::2], parts[1::2])
    if total < DEGENERATE_NORM_SQ:
        raise DegenerateStateError("amplitude vector is numerically zero")
    if abs(total - 1.0) >= NORM_TOL_INPUT:
        raise NormalizationError(
            f"squared norm is {total!r}, not 1; pass normalize=True to rescale"
        )


def make_state(n, amps, normalize=False):
    """Validate (and optionally rescale) an amplitude vector into a QubitState.

    Without ``normalize`` this is ``QubitState(n, amps)``: the squared norm
    must sit within 1e-6 of 1 and the amplitudes are stored verbatim, so
    round-trips through the text formats stay bit-exact; a squared norm
    below 1e-24 is rejected as numerically zero.  With ``normalize`` any
    nonzero finite vector, at any scale the floats hold, is rescaled to unit
    norm; only the zero vector is rejected.
    """
    return _make_state(n, _amplitude_parts(n, amps), normalize)


def _make_state(n, parts, normalize):
    """make_state of 2**n finite amplitudes, given as a tuple of parts."""
    if not normalize:
        _check_norm(parts)
        return QubitState._trusted(n, parts)
    # Scaled by the power of two of the largest real or imaginary part first,
    # so for inputs whose norm is in range unit / norm keeps every bit.
    unit = _pow2_scaled(parts)[0]
    norm = math.sqrt(_norm_sq(unit[0::2], unit[1::2]))
    if norm == 0.0:
        raise DegenerateStateError("amplitude vector is zero")
    return QubitState._trusted(n, tuple(_divided(unit, norm, 0.0)))


class PairEncoding:
    """The two level-n elements (u1, u2) a state encodes to."""

    __slots__ = ("n", "u1", "u2")

    def __init__(self, n, u1, u2):
        self.n = n
        self.u1 = u1
        self.u2 = u2


# Slot k of a half holds a_k * i_(2k): its real part on i_(2k), its
# imaginary part on i_1 * i_(2k) = S[1][2k] * i_(2k+1).  _PAIR_SIGNS[n] holds
# those signs on a half's interleaved (re, im) coefficients.
_PAIR_SIGNS = {
    n: tuple(s for k in range(1 << (n - 1)) for s in (1.0, float(_sign_rows(n)[1][2 * k])))
    for n in range(1, MAX_QUBITS + 1)
}


def _pair_parts(parts):
    """The (u1, u2) coefficient lists of one state's tuple of parts, or of
    many states' list of part columns, each one part of every state."""
    m = len(parts) // 2
    signs = _PAIR_SIGNS[m.bit_length() - 1]
    return [x * s for x, s in zip(parts[:m], signs)], [x * s for x, s in zip(parts[m:], signs)]


def encode_pair(state):
    """Encode a state into its (u1, u2) Cayley-Dickson pair."""
    u1, u2 = _pair_parts(state._parts)
    return PairEncoding(state.n, CDElement(state.n, u1), CDElement(state.n, u2))


def decode_pair(enc):
    """Invert encode_pair back to the amplitude vector (exact, slot-wise)."""
    _check_qubit_count(enc.n)
    if not enc.u1.level == enc.u2.level == enc.n:
        raise ShapeError(
            f"{enc.n} qubits need two level-{enc.n} elements, "
            f"got levels {enc.u1.level} and {enc.u2.level}"
        )
    signs = _PAIR_SIGNS[enc.n]
    coeffs = enc.u1.coeffs.tolist() + enc.u2.coeffs.tolist()
    return _make_state(enc.n, tuple(x * s for x, s in zip(coeffs, signs + signs)), False)


def _order(n, perm):
    # The amplitude indices with original qubit perm[j] at position j: bit j
    # of a new index, from the most significant, is bit perm[j] of the old.
    order = []
    for i in range(1 << n):
        old = 0
        for j, q in enumerate(perm):
            old |= (i >> (n - 1 - j) & 1) << (n - 1 - q)
        order.append(old)
    return tuple(order)


@functools.lru_cache(maxsize=None)
def _gather(order):
    # The itemgetter of the parts of the amplitudes at these indices.
    return itemgetter(*(x for i in order for x in (2 * i, 2 * i + 1)))


def permute_qubits(state, perm):
    """Reindex amplitudes so original qubit perm[j] occupies position j."""
    n = state.n
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(n)):
        raise StateError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    return QubitState._trusted(n, _gather(_order(n, [int(q) for q in perm]))(state._parts))


# _FRONT[n][q]: the amplitude indices with qubit q first, the others in order.
_FRONT = {
    n: tuple(_order(n, (q, *(p for p in range(n) if p != q))) for q in range(n))
    for n in range(1, MAX_QUBITS + 1)
}


def _front(state, qubit):
    # The parts of the state with `qubit` first, the others in order.
    return _gather(_FRONT[state.n][qubit])(state._parts)


def bring_to_front(state, qubit):
    """Permutation helper: move one qubit into role 0, others keep their order."""
    if not (_is_int(qubit) and 0 <= qubit < state.n):
        raise StateError(f"qubit index {qubit!r} out of range for n={state.n}")
    return QubitState._trusted(state.n, _front(state, qubit))


# numpy's SeedSequence hash: its constants, 32-bit words and the four-word
# pool it mixes them into.  The algorithm is fixed by numpy's stream
# compatibility policy; tests compare _philox_keys with SeedSequence itself.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_steps(init, mult, start, count):
    # The (xor, multiply) constants of hash steps start .. start+count-1 as
    # uint64 columns of shape (count, 1): step t xors init*mult**t and
    # multiplies by init*mult**(t+1), both mod 2**32.
    consts = [init * pow(mult, t, 1 << 32) & _MASK32 for t in range(start, start + count + 1)]
    consts = np.array(consts, dtype=np.uint64)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value, xor, mul):
    # On uint64 arrays holding 32-bit words.
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _word_count(value):
    # The number of 32-bit words of a nonnegative integer; 0 is one word.
    return max(1, (value.bit_length() + 31) // 32)


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
    taken = _POOL_SIZE * max(_POOL_SIZE, _word_count(seed))
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    for k in range(_word_count(max(index, default=0))):
        word = np.array([i >> 32 * k & _MASK32 for i in index], dtype=np.uint64)
        has_word = np.array([k == 0 or i >> 32 * k > 0 for i in index], dtype=bool)
        steps = _hash_steps(_INIT_A, _MULT_A, taken + _POOL_SIZE * k, _POOL_SIZE)
        mixed = _mix(pool, _hashmix(word, *steps))
        pool = np.where(has_word, mixed, pool)
    # generate_state's steps, one per output word: four 32-bit words per
    # row, read as two little-endian uint64s.
    out = _hashmix(pool, *_hash_steps(_INIT_B, _MULT_B, 0, _POOL_SIZE))
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
    # Every row's squared norm at once: _norm_sq of the 2**n (N,) columns of
    # real parts and the 2**n of imaginary parts, each one part of every row.
    re, im = np.ascontiguousarray(z.transpose(1, 2, 0))
    return amps / np.sqrt(_norm_sq(re, im))[:, None]


def random_state(n, seed, index=0):
    """Haar-random pure state: i.i.d. standard complex Gaussians, normalized.

    The generator is counter-based and keyed by (seed, index), so drawing
    sample ``index`` never depends on how many other samples were drawn.
    """
    _check_natural("index", index)
    return QubitState._trusted(n, _random_amplitudes(n, seed, [index])[0])


def _uniform(n, indices):
    # The equal superposition of the basis states at these amplitude indices.
    parts = [0.0] * (2 << n)
    for k in indices:
        parts[2 * k] = 1 / math.sqrt(len(indices))
    return QubitState._trusted(n, tuple(parts))


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
        pair = np.array(_pow2_scaled(_amplitude_parts(1, f))[0]).reshape(2, 2)
        amps = _mul(np.repeat(amps, 2, axis=0), np.tile(pair, (len(amps), 1)))
    return make_state(len(factors), amps.copy().view(np.complex128).ravel(), normalize=True)


def state_to_json(state):
    """Serialize to the interchange format: {"n": ..., "amplitudes": [[re, im], ...]}.

    Floats are written with repr precision (up to 17 significant digits), so
    loading the text reproduces the amplitudes bit for bit.
    """
    parts = state._parts
    pairs = [list(pair) for pair in zip(parts[0::2], parts[1::2])]
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
        amps = [complex(re, im) for re, im in pairs]
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
