import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.cdnum import basis, complex_pairs, one
from hopfq.states import (
    DegenerateStateError,
    MAX_QUBITS,
    NormalizationError,
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


def _dist(x, y):
    return float(np.max(np.abs(x.coeffs - y.coeffs)))


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
    with pytest.raises(ValueError):
        permute_qubits(s, [0, 0, 1])
    with pytest.raises(ValueError):
        permute_qubits(s, [0, 1])


def test_bring_to_front():
    s = make_state(3, np.arange(1, 9), normalize=True)
    front = bring_to_front(s, 1)
    direct = permute_qubits(s, [1, 0, 2])
    assert np.array_equal(front.amps, direct.amps)
    same = bring_to_front(s, 0)
    assert np.array_equal(same.amps, s.amps)


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
    # in-range inputs rescale bit for bit as a plain division by the norm
    rng = np.random.default_rng(41)
    for _ in range(50):
        amps = rng.standard_normal(8) * 3.0 + 1j * rng.standard_normal(8)
        s = make_state(3, amps, normalize=True)
        assert s.amps.tobytes() == (amps / np.linalg.norm(amps)).tobytes()
    with pytest.raises(DegenerateStateError):
        make_state(2, np.zeros(4), normalize=True)
    with pytest.raises(StateError):
        make_state(1, np.array([np.inf, 1.0]), normalize=True)


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
    with pytest.raises(ShapeError):
        make_state(2, np.ones((2, 2)))
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


def test_make_state_stores_verbatim():
    amps = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], dtype=np.complex128)
    s = make_state(2, amps)
    assert np.array_equal(s.amps, amps)


def test_state_immutable():
    s = bell_state()
    with pytest.raises(AttributeError):
        s.n = 3
    with pytest.raises((ValueError, RuntimeError)):
        s.amps[0] = 99.0


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
