"""Pure n-qubit states (n = 1..4) and their Cayley-Dickson pair encodings.

Qubit 0 is the most significant bit: the amplitude of |b0 b1 ... b(n-1)> sits
at index b0*2**(n-1) + ... + b(n-1).  A state maps to a pair (u1, u2) of
level-n elements; u1 collects the amplitudes with qubit 0 in |0>, u2 those
with qubit 0 in |1>.  Amplitude k occupies complex slot (k mod 2**(n-1)) of
its half, conjugated in the even-parity slots described at _HALF_CONJ below
so that the base-map coordinates reproduce the closed-form entanglement
results for every qubit count.
"""

import json

import numpy as np

from .cdnum import CDElement

MAX_QUBITS = 4

NORM_TOL_STRICT = 1e-9
NORM_TOL_INPUT = 1e-6


class StateError(ValueError):
    """Base class for state validation failures."""


class ShapeError(StateError):
    """Amplitude vector has the wrong length or qubit count is unsupported."""


class DegenerateStateError(StateError):
    """Amplitude vector is (numerically) the zero vector."""


class NormalizationError(StateError):
    """State is not normalized and no rescale was requested."""


class QubitState:
    """Validated pure state: qubit count n and 2**n complex amplitudes."""

    __slots__ = ("n", "amps")

    def __init__(self, n, amps, _norm_tol=NORM_TOL_INPUT):
        if not 1 <= n <= MAX_QUBITS:
            raise ShapeError(f"qubit count must be 1..{MAX_QUBITS}, got {n}")
        arr = np.asarray(amps, dtype=np.complex128).copy()
        if arr.shape != (1 << n,):
            raise ShapeError(f"{n} qubits need {1 << n} amplitudes, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise StateError("amplitudes must be finite")
        if _norm_tol is not None:
            # Past the float range the squared norm is inf, which fails the check.
            with np.errstate(over="ignore"):
                total = float(np.sum(np.abs(arr) ** 2))
            if abs(total - 1.0) >= _norm_tol:
                raise NormalizationError(
                    f"squared norm is {total!r}, not 1; pass normalize=True to rescale"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QubitState is immutable")

    def __repr__(self):
        return f"QubitState(n={self.n})"


def make_state(n, amps, normalize=False):
    """Validate (and optionally rescale) an amplitude vector into a QubitState.

    Without ``normalize`` the squared norm must sit within 1e-6 of 1 and the
    amplitudes are stored verbatim, so round-trips through the text formats
    stay bit-exact; a norm below 1e-12 is rejected as numerically zero.  With
    ``normalize`` any nonzero finite vector, at any scale the floats hold, is
    rescaled to unit norm and validated again; only the zero vector is
    rejected.
    """
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1:
        raise ShapeError(f"amplitudes must be a flat vector, got shape {arr.shape}")
    if not normalize:
        # A norm past the float range is inf, which QubitState rejects.
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr))
        if norm < 1e-12:
            raise DegenerateStateError("amplitude vector is numerically zero")
        return QubitState(n, arr)
    # Divide by the power of two of the largest real or imaginary part first:
    # exact, so the norm neither overflows nor underflows, and for inputs whose
    # norm is in range arr / norm(arr) keeps every bit.
    parts = np.ascontiguousarray(arr).view(np.float64)
    top = np.max(np.abs(parts), initial=0.0)
    if not np.isfinite(top):
        raise StateError("amplitudes must be finite")
    unit = np.ldexp(parts, -np.frexp(top)[1]).view(np.complex128)
    norm = float(np.linalg.norm(unit))
    if norm == 0.0:
        raise DegenerateStateError("amplitude vector is zero")
    return QubitState(n, unit / norm, _norm_tol=NORM_TOL_STRICT)


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
_HALF_CONJ = {
    n: tuple(bin(j).count("1") % 2 == 0 and j > 0 for j in range(1 << (n - 1)))
    for n in range(1, MAX_QUBITS + 1)
}


# _HALF_CONJ as signs on a half's interleaved (re, im) coefficients: -1 on
# the imaginary part of each conjugated slot, +1 everywhere else.
_PAIR_SIGNS = {
    n: np.array([[1.0, -1.0 if conj else 1.0] for conj in slots]).ravel()
    for n, slots in _HALF_CONJ.items()
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
    coeffs = np.stack([enc.u1.coeffs, enc.u2.coeffs]) * _PAIR_SIGNS[enc.n]
    return QubitState(enc.n, coeffs.reshape(-1).view(np.complex128), _norm_tol=None)


def permute_qubits(state, perm):
    """Reindex amplitudes so original qubit perm[j] occupies position j."""
    n = state.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    t = state.amps.reshape((2,) * n)
    out = np.transpose(t, axes=perm).reshape(-1)
    return QubitState(n, out, _norm_tol=None)


def bring_to_front(state, qubit):
    """Permutation helper: move one qubit into role 0, others keep their order."""
    perm = [qubit] + [q for q in range(state.n) if q != qubit]
    return permute_qubits(state, perm)


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
    if value < 0:
        raise ValueError("expected non-negative integer")
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
    m = 1 << n
    keys = _philox_keys(seed, indices)
    z = np.empty((len(keys), 2, m))
    # Its seed is never drawn from: every row sets the whole state.
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        gen.standard_normal(out=z[row])
    amps = z[:, 0] + 1j * z[:, 1]
    # Squared real and imaginary parts as (N, 2**n, 2), summed over the
    # amplitude axis: a reduction over a non-last axis, which adds each row
    # in the same order whatever N is (see cdnum._mul).
    parts = amps.view(np.float64).reshape(len(amps), m, 2)
    sq = (parts * parts).sum(axis=-2)
    return amps / np.sqrt(sq[:, 0] + sq[:, 1])[:, None]


def random_state(n, seed, index=0):
    """Haar-random pure state: i.i.d. standard complex Gaussians, normalized.

    The generator is counter-based and keyed by (seed, index), so drawing
    sample ``index`` never depends on how many other samples were drawn.
    """
    return QubitState(n, _random_amplitudes(n, seed, [index])[0], _norm_tol=None)


def basis_state(n, bits):
    """Computational basis state |bits>."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return QubitState(n, amps, _norm_tol=None)


def bell_state():
    return make_state(2, np.array([1, 0, 0, 1]) / np.sqrt(2), normalize=False)


def ghz_state(n):
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return QubitState(n, amps, _norm_tol=None)


def w_state(n):
    """Single-excitation symmetric state (|10..0> + |01..0> + ... )/sqrt(n)."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    for q in range(n):
        amps[1 << q] = 1 / np.sqrt(n)
    return QubitState(n, amps, _norm_tol=None)


def product_state(factors):
    """Tensor product of per-qubit amplitude pairs, most significant first."""
    amps = np.array([1.0 + 0j])
    for f in factors:
        amps = np.kron(amps, np.asarray(f, dtype=np.complex128))
    return make_state(len(factors), amps, normalize=True)


def state_to_json(state):
    """Serialize to the interchange format: {"n": ..., "amplitudes": [[re, im], ...]}.

    Floats are written with repr precision (up to 17 significant digits), so
    loading the text reproduces the amplitudes bit for bit.
    """
    pairs = [[float(a.real), float(a.imag)] for a in state.amps]
    return json.dumps({"n": state.n, "amplitudes": pairs})


def state_from_json(text, normalize=False):
    """Parse the interchange format; validates shape and normalization."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateError(f"invalid state file: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "amplitudes" not in obj:
        raise StateError('state file must be an object with "n" and "amplitudes"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ShapeError("state file field 'n' must be an integer")
    pairs = obj["amplitudes"]
    try:
        # complex() takes a bool as 0 or 1; JSON true/false is no amplitude.
        if any(isinstance(part, bool) for pair in pairs for part in pair):
            raise TypeError
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError):
        raise StateError("state file amplitudes must be [re, im] pairs") from None
    return make_state(n, amps, normalize=normalize)


def read_state_file(path, normalize=False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StateError(f"cannot read state file {path}: {exc}") from None
    return state_from_json(text, normalize=normalize)


def write_state_file(state, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))
        fh.write("\n")
