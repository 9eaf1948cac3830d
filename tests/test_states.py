import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfq.cdnum import (
    CDElement, basis, cd_inverse, cd_mul, cd_norm_sq, complex_pairs, from_complex_pairs, one, zero,
)
from hopfq.states import (
    DegenerateStateError,
    MAX_QUBITS,
    NormalizationError,
    PairEncoding,
    QubitState,
    ShapeError,
    StateError,
    _philox_keys,
    _random_amplitudes,
    basis_state,
    bell_state,
    bring_to_front,
    decode_pair,
    encode_pair,
    ghz_state,
    make_state,
    permute_qubits,
    product_state,
    random_state,
    read_state_file,
    state_from_json,
    state_to_json,
    w_state,
    write_state_file,
)
from conftest import _Complex
from test_cdnum import _dist, _python_norm_sq

ROOT = Path(__file__).resolve().parents[1]


def test_named_states_are_unit_norm():
    states = [bell_state(), ghz_state(3), ghz_state(4), w_state(3), w_state(4)]
    for s in states:
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-12


def test_basis_state_indexing():
    s = basis_state(2, "01")
    assert s.amps[1] == 1.0 and np.sum(np.abs(s.amps)) == 1.0
    s = basis_state(4, "1010")
    assert s.amps[10] == 1.0


def test_w_state_support():
    s = w_state(4)
    nz = np.nonzero(s.amps)[0]
    assert list(nz) == [1, 2, 4, 8]
    assert np.allclose(s.amps[nz], 0.5)


def test_encode_bell():
    enc = encode_pair(bell_state())
    r = 1 / np.sqrt(2)
    assert _dist(enc.u1, r * one(2)) < 1e-15
    assert _dist(enc.u2, r * basis(2, 2)) < 1e-15


def test_encode_ghz3():
    enc = encode_pair(ghz_state(3))
    r = 1 / np.sqrt(2)
    assert _dist(enc.u1, r * one(3)) < 1e-15
    assert _dist(enc.u2, r * basis(3, 6)) < 1e-15


def test_encode_single_excitation_4():
    # the four-qubit single-excitation state maps to
    # u1 = (i2 + i4 + i8)/2, u2 = 1/2
    enc = encode_pair(w_state(4))
    expected = 0.5 * (basis(4, 2) + basis(4, 4) + basis(4, 8))
    assert _dist(enc.u1, expected) < 1e-15
    assert _dist(enc.u2, 0.5 * one(4)) < 1e-15


def test_encoding_conjugates_even_parity_slots():
    # within each half, complex slot j is stored conjugated exactly when
    # j > 0 and j has an even number of set bits
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        half = 1 << (n - 1)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        enc = encode_pair(make_state(n, amps))
        for lo, u in ((0, enc.u1), (half, enc.u2)):
            slots = complex_pairs(u)
            for j in range(half):
                want = amps[lo + j]
                if j > 0 and bin(j).count("1") % 2 == 0:
                    want = np.conj(want)
                assert abs(slots[j] - want) == 0.0


# Haar states, and sparse states whose parts are zeros of both signs or a few
# values, normalized.
_SPARSE_PART = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5))
_PRODUCT_FORM_STATES = st.builds(
    random_state, st.integers(1, 4), st.integers(0, 2**32), st.integers(0, 100)
) | st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(_SPARSE_PART, _SPARSE_PART), min_size=1 << n, max_size=1 << n)
    .filter(lambda parts: any(map(any, parts)))
    .map(lambda parts: make_state(n, [complex(*p) for p in parts], normalize=True))
)


@settings(max_examples=300, deadline=None)
@given(_PRODUCT_FORM_STATES)
def test_encoding_is_the_product_form(state):
    # Each half is u = sum_k a_k * i_(2k), a_k = re + im*i_1 the half's k-th
    # amplitude, with the products taken in the algebra.
    n, half = state.n, 1 << (state.n - 1)
    enc = encode_pair(state)
    for lo, u in ((0, enc.u1), (half, enc.u2)):
        terms = [
            cd_mul(from_complex_pairs(n, [state.amps[lo + k]] + [0] * (half - 1)), basis(n, 2 * k))
            for k in range(half)
        ]
        assert np.array_equal(u.coeffs, sum(terms, zero(n)).coeffs)


def test_decode_round_trip_exact():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3, 4):
        for k in range(20):
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            amps /= np.linalg.norm(amps)
            s = make_state(n, amps)
            back = decode_pair(encode_pair(s))
            assert back.n == n
            assert np.array_equal(back.amps, s.amps)


def test_decode_pair_checks_the_norm():
    # A pair that no unit state encodes to decodes to no state.
    with pytest.raises(DegenerateStateError):
        decode_pair(PairEncoding(2, zero(2), zero(2)))
    enc = encode_pair(random_state(2, seed=5))
    with pytest.raises(NormalizationError):
        decode_pair(PairEncoding(2, 3.0 * enc.u1, 3.0 * enc.u2))


def test_decode_pair_checks_the_shape():
    # An unsupported n once raised KeyError from the sign table, and elements
    # of another level numpy's broadcast ValueError.
    for n in (0, 5, True, 2.0, None):
        with pytest.raises(ShapeError, match="qubit count"):
            decode_pair(PairEncoding(n, zero(2), zero(2)))
    enc = encode_pair(random_state(2, seed=5))
    for u1, u2 in ((enc.u1, enc.u1), (zero(3), enc.u2), (enc.u1, zero(1))):
        with pytest.raises(ShapeError, match="level-3 elements"):
            decode_pair(PairEncoding(3, u1, u2))
    with pytest.raises(ShapeError, match="got levels 2 and 1"):
        decode_pair(PairEncoding(2, enc.u1, zero(1)))


def test_encode_levels():
    for n in (1, 2, 3, 4):
        enc = encode_pair(random_state(n, seed=7))
        assert enc.u1.level == n and enc.u2.level == n


def test_permute_basis_semantics():
    # new bit j of the relabeled state is old bit perm[j]
    for bits in ("011", "101", "110"):
        s = basis_state(3, bits)
        out = permute_qubits(s, [2, 0, 1])
        want = bits[2] + bits[0] + bits[1]
        assert np.array_equal(out.amps, basis_state(3, want).amps)


def test_permute_identity_and_composition():
    rng = np.random.default_rng(33)
    for n in (2, 3, 4):
        s = random_state(n, seed=100 + n)
        ident = permute_qubits(s, list(range(n)))
        assert np.array_equal(ident.amps, s.amps)
        for _ in range(10):
            p1 = list(rng.permutation(n))
            p2 = list(rng.permutation(n))
            two_step = permute_qubits(permute_qubits(s, p1), p2)
            combined = permute_qubits(s, [p1[p2[j]] for j in range(n)])
            assert np.array_equal(two_step.amps, combined.amps)


def test_permute_rejects_non_permutation():
    s = ghz_state(3)
    with pytest.raises(StateError):
        permute_qubits(s, [0, 0, 1])
    with pytest.raises(StateError):
        permute_qubits(s, [0, 1])


def test_bring_to_front():
    s = make_state(3, np.arange(1, 9), normalize=True)
    front = bring_to_front(s, 1)
    direct = permute_qubits(s, [1, 0, 2])
    assert np.array_equal(front.amps, direct.amps)
    same = bring_to_front(s, 0)
    assert np.array_equal(same.amps, s.amps)
    assert repr(front) == "QubitState(n=3)"
    # -1 must not wrap around to the last qubit, and n must not reach numpy;
    # numpy would read True as a mask and reject 1.0 with an IndexError.  The
    # one qubit-range check raises a StateError, which the CLI maps to exit 2.
    for q in (-1, 3, True, np.True_, 1.0, "0"):
        with pytest.raises(StateError, match=f"qubit index {q!r} out of range for n=3"):
            bring_to_front(s, q)
    assert np.array_equal(bring_to_front(s, np.int64(1)).amps, front.amps)


def test_permutation_entries_must_be_ints():
    s = bell_state()
    for perm in ([True, False], [1.0, 0.0], np.array([True, False])):
        with pytest.raises(StateError, match="permutation"):
            permute_qubits(s, perm)
    assert np.array_equal(permute_qubits(s, np.array([1, 0])).amps, s.amps)


def test_random_state_deterministic():
    a = random_state(3, seed=42, index=5)
    b = random_state(3, seed=42, index=5)
    assert np.array_equal(a.amps, b.amps)
    c = random_state(3, seed=42, index=6)
    d = random_state(3, seed=43, index=5)
    assert not np.array_equal(a.amps, c.amps)
    assert not np.array_equal(a.amps, d.amps)
    assert abs(np.sum(np.abs(a.amps) ** 2) - 1.0) < 1e-12


def test_random_state_index_is_order_free():
    # drawing index k never depends on which other indices were drawn
    fresh = random_state(2, seed=9, index=50)
    for k in range(3):
        random_state(2, seed=9, index=k)
    again = random_state(2, seed=9, index=50)
    assert np.array_equal(fresh.amps, again.amps)


def test_batched_draws_keep_per_index_keying():
    indices = [0, 3, 7, 1000, 2**40]
    batch = _random_amplitudes(4, 77, indices)
    for row, index in zip(batch, indices):
        # the documented keying: two draws of 2**n from Philox(seed, index)
        ss = np.random.SeedSequence(entropy=77, spawn_key=(index,))
        rng = np.random.Generator(np.random.Philox(ss))
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.max(np.abs(row - z / np.linalg.norm(z))) < 1e-15
        # and the scalar API is the same row, bit for bit
        assert random_state(4, 77, index).amps.tobytes() == row.tobytes()


# numpy's own classes, kept before any test swaps the module attributes.
_SEED_SEQUENCE = np.random.SeedSequence
_PHILOX = np.random.Philox


def _documented_row(n, seed, index):
    # random_state's documented keying, spelled out with numpy's classes.
    ss = _SEED_SEQUENCE(entropy=seed, spawn_key=(index,))
    z = np.random.Generator(_PHILOX(ss)).standard_normal(2 << n)
    amps = z[: 1 << n] + 1j * z[1 << n :]
    parts = amps.view(np.float64).reshape(1 << n, 2)
    sq = (parts * parts).sum(axis=0)
    return amps / np.sqrt(sq[0] + sq[1])


def _words(count):
    # Nonnegative integers of exactly `count` 32-bit words (0 is one word).
    low = 0 if count == 1 else 1 << (32 * (count - 1))
    return st.integers(low, (1 << (32 * count)) - 1)


_SEEDS = st.integers(1, 6).flatmap(_words)
_INDICES = st.lists(st.integers(1, 3).flatmap(_words), min_size=2, max_size=12)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), seed=_SEEDS, indices=_INDICES)
def test_batched_draws_are_the_documented_keying(n, seed, indices):
    # seeds of 1..6 words and indices of 1..3 words, mixed in one batch
    batch = _random_amplitudes(n, seed, indices)
    keys = _philox_keys(seed, indices)
    for row, key, index in zip(batch, keys, indices):
        ss = _SEED_SEQUENCE(entropy=seed, spawn_key=(index,))
        assert key.tobytes() == ss.generate_state(2, np.uint64).tobytes()
        assert row.tobytes() == _documented_row(n, seed, index).tobytes()


def test_keys_at_word_boundaries():
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**200 + 7]
    for seed in edges:
        keys = _philox_keys(seed, edges)
        for key, index in zip(keys, edges):
            ss = _SEED_SEQUENCE(entropy=seed, spawn_key=(index,))
            assert key.tobytes() == ss.generate_state(2, np.uint64).tobytes()
    assert _philox_keys(5, []).shape == (0, 2)
    assert _random_amplitudes(3, 5, []).shape == (0, 8)


def test_random_state_keeps_its_bits_past_one_word():
    for seed in (0, 12345, 2**40 + 3):
        for index in (0, 7, 2**32 - 1, 2**32, 2**64 + 1):
            want = _documented_row(4, seed, index)
            assert random_state(4, seed, index).amps.tobytes() == want.tobytes()


def test_negative_seed_or_index_is_rejected():
    for seed, indices in ((-1, [0]), (-1, [0, 1]), (0, [-1]), (0, [3, -2]), (-(2**70), [5, 6])):
        with pytest.raises(ValueError):
            _random_amplitudes(2, seed, indices)
    with pytest.raises(ValueError):
        random_state(2, -3)
    with pytest.raises(ValueError):
        random_state(2, 3, index=-1)


def test_seeds_indices_and_qubit_counts_are_ints():
    # int() would read True as seed 1 and truncate 1.9 and 2.7
    for args in ((4, True), (4, 1.9), (4, 3, 2.7), (4, 3, np.True_), (4, 3.0)):
        with pytest.raises(StateError, match="nonnegative integer"):
            random_state(*args)
    # 2.0 and -1 once failed in a shift, with TypeError or a bare ValueError
    for n in (0, 5, -1, True, 2.0):
        for make in (lambda n: random_state(n, 1), ghz_state, w_state):
            with pytest.raises(ShapeError):
                make(n)
    same = random_state(np.int64(2), np.uint8(3), np.int32(4))
    assert same.amps.tobytes() == random_state(2, 3, 4).amps.tobytes()
    assert np.array_equal(ghz_state(np.int8(3)).amps, ghz_state(3).amps)


def test_basis_state_needs_n_bits():
    # int(bits, 2) would read "0" as |00> and "0b1" or " 1" as a number
    for bits in ("0", "111", "0b", " 1", "12", "", 1, b"01"):
        with pytest.raises(ShapeError, match="string of 2 bits"):
            basis_state(2, bits)
    with pytest.raises(ShapeError):
        basis_state(True, "1")


def test_a_batch_builds_one_generator_not_one_per_row(monkeypatch):
    built = {"SeedSequence": 0, "Philox": 0}

    def counting(name, cls):
        def build(*args, **kwargs):
            built[name] += 1
            return cls(*args, **kwargs)

        return build

    monkeypatch.setattr(np.random, "SeedSequence", counting("SeedSequence", _SEED_SEQUENCE))
    monkeypatch.setattr(np.random, "Philox", counting("Philox", _PHILOX))
    batch = _random_amplitudes(4, 2024, range(256))
    # no SeedSequence per row, and at most one Philox, re-keyed for each row
    assert built["SeedSequence"] <= 1
    assert built["Philox"] <= 1
    monkeypatch.undo()
    for index in (0, 1, 128, 255):
        assert batch[index].tobytes() == _documented_row(4, 2024, index).tobytes()


def test_normalize_rescales_at_any_float_scale():
    # the norm of 1e200 amplitudes overflows and that of 1e-170 underflows
    for scale in (5e-324, 1e-300, 1e-170, 1e-13, 1.0, 1e200, 1e307):
        s = make_state(2, np.array([scale, 0, 0, scale]), normalize=True)
        assert np.max(np.abs(s.amps - bell_state().amps)) < 1e-15
    big = make_state(1, np.array([1.7e308 + 1.7e308j, 1.7e308]), normalize=True)
    assert abs(np.sum(np.abs(big.amps) ** 2) - 1.0) < 1e-15
    # in-range inputs rescale bit for bit as a plain division by the norm,
    # whose square a plain Python loop adds: re**2 in index order, then im**2
    rng = np.random.default_rng(41)
    for _ in range(50):
        amps = rng.standard_normal(8) * 3.0 + 1j * rng.standard_normal(8)
        s = make_state(3, amps, normalize=True)
        assert s.amps.tobytes() == (amps / math.sqrt(_python_norm_sq(amps))).tobytes()
    with pytest.raises(DegenerateStateError):
        make_state(2, np.zeros(4), normalize=True)
    with pytest.raises(StateError):
        make_state(1, np.array([np.inf, 1.0]), normalize=True)


def test_norms_hash_the_same_on_every_cpu():
    # sha256 over normalized amplitudes (n = 1..4, scales 1e-3 and 1e3) and
    # level-4 squared norms and inverses.  Every squared norm adds in index
    # order, not in an order that numpy's SIMD loops or BLAS pick for the CPU.
    rng = np.random.default_rng(2301)
    digest = hashlib.sha256()
    for n in range(1, MAX_QUBITS + 1):
        for scale in (1e-3, 1e3):
            for _ in range(250):
                amps = (rng.standard_normal((1 << n, 2)) * scale).view(np.complex128)[:, 0]
                digest.update(make_state(n, amps, normalize=True).amps.tobytes())
    for _ in range(500):
        x = CDElement(4, rng.standard_normal(16))
        digest.update(np.float64(cd_norm_sq(x)).tobytes() + cd_inverse(x).coeffs.tobytes())
    assert digest.hexdigest() == (
        "26bcb3013a50ea39b7ecc7ae8d9f09885ef493f15e9644bb55e87c7672ab94a8"
    )


def test_unnormalized_extremes_are_typed_errors():
    with pytest.raises(NormalizationError):
        make_state(1, np.array([1e200, 0.0]))
    with pytest.raises(NormalizationError):
        QubitState(1, np.array([1e300, 1e300]))
    with pytest.raises(DegenerateStateError):
        make_state(2, np.array([1e-170, 0, 0, 1e-170]))
    with pytest.raises(DegenerateStateError):
        make_state(1, np.array([9e-13, 0.0]))
    with pytest.raises(NormalizationError):
        make_state(1, np.array([2e-12, 0.0]))


def test_json_rejects_bool_qubit_count():
    for flag in ("true", "false"):
        with pytest.raises(ShapeError):
            state_from_json('{"n": %s, "amplitudes": [[1, 0], [0, 0]]}' % flag)
    # nor as an amplitude part, even where the bools would read as a unit state
    for pairs in ("[[true, false], [false, false]]", "[[0.6, 0], [0.8, false]]"):
        with pytest.raises(StateError, match=r"\[re, im\] pairs"):
            state_from_json('{"n": 1, "amplitudes": %s}' % pairs)


def test_product_state():
    s = product_state([[1, 0], [0, 1]])
    assert np.array_equal(s.amps, basis_state(2, "01").amps)
    # factors need not be normalized
    s = product_state([[2, 0], [3, 3]])
    assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-12
    assert s.amps[0] != 0 and s.amps[1] != 0 and s.amps[2] == 0


def test_product_state_checks_each_factor():
    # Each factor is an amplitude vector: np.asarray reads True or "1" as 1,
    # and the product of unscaled 1e200 or 1e-200 factors leaves the floats.
    for factors in ([[True, 0]], [["1", 0]], [[1.0, 0], (np.bool_(True), 0)]):
        with pytest.raises(StateError, match="booleans, strings or bytes"):
            product_state(factors)
    with pytest.raises(StateError, match="finite"):
        product_state([[np.inf, 0]])
    with pytest.raises(ShapeError):
        product_state([[1, 0, 0]])
    with pytest.raises(DegenerateStateError):
        product_state([[1, 0], [0, 0]])
    # Factors whose product leaves the float range still give their state.
    big = product_state([[1e200, 0], [1e200, 1]])
    assert np.allclose(big.amps, [1, 1e-200, 0, 0], rtol=1e-15, atol=0)
    tiny = product_state([[1e-200, 0], [1e-200, 0]])
    assert tiny.amps.tobytes() == basis_state(2, "00").amps.tobytes()


_factor_parts = st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-30
)


def _python_product(factors):
    # The tensor product in Python floats, one rounding per operation.  Each
    # part is added to 0.0, as numpy's sum starts, so where Python's product
    # gives -0.0, _mul's gives 0.0; no other value moves.
    start = _Complex((0.0, 0.0))
    amps = [_Complex((1.0, 0.0))]
    for f in factors:
        pair = [_Complex((float(z.real), float(z.imag))) for z in f]
        amps = [start + a * b for a in amps for b in pair]
    return np.array([complex(*a) for a in amps])


@settings(max_examples=200, deadline=None)
@example(parts=[[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
@given(st.lists(st.lists(_factor_parts, min_size=4, max_size=4), min_size=1, max_size=4))
def test_product_state_is_the_normalized_python_float_product_of_in_range_factors(parts):
    factors = [np.array(f).view(np.complex128) for f in parts]
    assume(all(np.any(f) for f in factors))
    expected = make_state(len(factors), _python_product(factors), normalize=True)
    assert product_state(factors).amps.tobytes() == expected.amps.tobytes()


def test_product_state_checks_the_factor_count_before_reading_a_factor():
    class Counted(list):
        # A factor list that counts the factors read from it.
        read = 0

        def __iter__(self):
            for f in super().__iter__():
                self.read += 1
                yield f

    for count in (0, 5):
        factors = Counted([[1, 0]] * count)
        with pytest.raises(ShapeError, match="qubit count"):
            product_state(factors)
        assert factors.read == 0
    factors = Counted([[1, 0]] * 4)
    assert product_state(factors).n == 4 and factors.read == 4


def test_products_hash_the_same_on_every_cpu():
    # sha256 over products of 1-4 one-qubit random_state factors, a third of
    # them scaled by 1e-3 and a third by 1e3.  Every amplitude is a level-1
    # _mul, with no multiply-add that numpy's SIMD complex loops may fuse.
    digest = hashlib.sha256()
    index = 0
    for n in range(1, MAX_QUBITS + 1):
        for _ in range(250):
            factors = []
            for _ in range(n):
                parts = random_state(1, 2401, index).amps.view(np.float64)
                factors.append((parts * (1.0, 1e-3, 1e3)[index % 3]).view(np.complex128))
                index += 1
            digest.update(product_state(factors).amps.tobytes())
    assert digest.hexdigest() == (
        "27a22714968c3831e0cc216bac3d001f671aac459c34abe52d35e8ee21ae0cdf"
    )


def test_json_round_trip_bit_exact():
    for n in (1, 2, 3, 4):
        s = random_state(n, seed=77, index=n)
        back = state_from_json(state_to_json(s))
        assert back.n == n
        assert np.array_equal(back.amps, s.amps)


def test_state_file_round_trip(tmp_path):
    s = random_state(4, seed=123)
    path = tmp_path / "state.json"
    write_state_file(s, path)
    back = read_state_file(path)
    assert np.array_equal(back.amps, s.amps)


def test_state_files_are_paths_not_descriptors(tmp_path):
    # open() reads an int as a file descriptor and closes it when done.
    path = tmp_path / "state.json"
    write_state_file(bell_state(), path)
    fd = os.open(path, os.O_RDWR)
    try:
        with pytest.raises(StateError, match="cannot read state file"):
            read_state_file(fd)
        with pytest.raises(TypeError):
            write_state_file(bell_state(), fd)
        os.fstat(fd)
    finally:
        os.close(fd)
    assert read_state_file(str(path)).amps.tobytes() == bell_state().amps.tobytes()
    with pytest.raises(StateError, match="cannot read state file"):
        read_state_file(f"{path}\0")


def test_a_bool_path_leaves_stdout_open():
    # True is fd 1: open(True) would read or write the caller's stdout and close it.
    code = (
        "from hopfq.states import StateError, bell_state, read_state_file, write_state_file\n"
        "try:\n    read_state_file(True)\nexcept StateError:\n    print('read')\n"
        "try:\n    write_state_file(bell_state(), True)\nexcept TypeError:\n    print('write')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "read\nwrite\n", "")


def test_json_error_cases():
    with pytest.raises(StateError):
        state_from_json("not json {")
    with pytest.raises(StateError):
        state_from_json('{"n": 2}')
    with pytest.raises(StateError):
        state_from_json('[1, 2]')
    with pytest.raises(ShapeError):
        state_from_json('{"n": "2", "amplitudes": [[1, 0]]}')
    with pytest.raises(StateError):
        state_from_json('{"n": 1, "amplitudes": [1, 0]}')
    with pytest.raises(ShapeError):
        state_from_json('{"n": 2, "amplitudes": [[1, 0], [0, 0]]}')


def test_json_normalization_control():
    text = '{"n": 1, "amplitudes": [[3, 0], [0, 4]]}'
    with pytest.raises(NormalizationError):
        state_from_json(text)
    s = state_from_json(text, normalize=True)
    assert abs(abs(s.amps[0]) - 0.6) < 1e-15
    assert abs(abs(s.amps[1]) - 0.8) < 1e-15


def test_make_state_validation():
    with pytest.raises(DegenerateStateError):
        make_state(2, np.zeros(4))
    with pytest.raises(DegenerateStateError):
        QubitState(2, np.zeros(4))
    # The shape is checked before the norm, zero vector or not.
    with pytest.raises(ShapeError):
        make_state(5, np.zeros(32))
    with pytest.raises(ShapeError):
        make_state(2, np.ones((2, 2)))
    with pytest.raises(ShapeError):
        make_state(1, 1.0)
    with pytest.raises(ShapeError):
        make_state(5, np.ones(32) / np.sqrt(32))
    with pytest.raises(ShapeError):
        make_state(2, np.ones(3))
    with pytest.raises(StateError):
        make_state(1, np.array([np.nan, 0.0]))
    with pytest.raises(NormalizationError):
        make_state(1, np.array([1.0, 1.0]))
    # but normalize=True accepts any nonzero vector
    s = make_state(1, np.array([1.0, 1.0]), normalize=True)
    assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-12


def test_make_state_rejects_type_puns():
    # numpy converts booleans, strings and bytes to numbers; none is an amplitude.
    for amps in (
        ["1", "0"],
        [True, False],
        np.array([b"1", b"0"]),
        np.array([True, False]),
        [True, 0],
        (1.0, np.bool_(False)),
        np.array([1.0, "0"], dtype=object),
        "10",
    ):
        for normalize in (False, True):
            with pytest.raises(StateError, match="booleans, strings or bytes"):
                make_state(1, amps, normalize=normalize)
        with pytest.raises(StateError, match="booleans, strings or bytes"):
            QubitState(1, amps)


def test_make_state_stores_verbatim():
    amps = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], dtype=np.complex128)
    s = make_state(2, amps)
    assert np.array_equal(s.amps, amps)
    # a copy: the caller's array stays writable and the state keeps its values
    amps[0] = 0.0
    assert s.amps[0] != 0.0


def test_state_immutable():
    s = bell_state()
    w = w_state(3)
    # reindexed states, a gather and a view, share no writable buffer
    for state in (s, bring_to_front(w, 2), permute_qubits(w, [0, 1, 2])):
        with pytest.raises(AttributeError):
            state.n = 3
        with pytest.raises((ValueError, RuntimeError)):
            state.amps[0] = 99.0


def test_error_hierarchy():
    assert issubclass(ShapeError, StateError)
    assert issubclass(DegenerateStateError, StateError)
    assert issubclass(NormalizationError, StateError)
    assert issubclass(StateError, ValueError)
    assert MAX_QUBITS == 4


def test_qubit_state_norm_window():
    # loose input tolerance accepts 1e-7 drift, rejects 1e-5
    amps = np.array([1.0 + 5e-8, 0.0])
    QubitState(1, amps)
    with pytest.raises(NormalizationError):
        QubitState(1, np.array([1.0 + 5e-6, 0.0]))
