import decimal
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _Complex
from hopfq.fibration import ball_coordinates, e_measure, hopf_quotient, is_mes
from hopfq.reporting import analysis_report
from hopfq.states import (
    _FRONT,
    ShapeError,
    StateError,
    basis_state,
    bell_state,
    bring_to_front,
    ghz_state,
    make_state,
    permute_qubits,
    product_state,
    random_state,
    w_state,
)
from hopfq.tangles import (
    _spin_flip_gram,
    classify_three,
    concurrence,
    hyperdeterminant_222,
    pair_tangles,
    partial_trace_to_single,
    separable_one_rest,
    tau_one_rest,
    three_tangle,
    two_tangles,
)


def _cayley_quartic(amps):
    # independent oracle: the classical degree-4 polynomial in the eight
    # amplitudes a_ijk (binary index i*4 + j*2 + k)
    a = amps
    d1 = (
        a[0] ** 2 * a[7] ** 2
        + a[1] ** 2 * a[6] ** 2
        + a[2] ** 2 * a[5] ** 2
        + a[3] ** 2 * a[4] ** 2
    )
    d2 = (
        a[0] * a[7] * a[3] * a[4]
        + a[0] * a[7] * a[5] * a[2]
        + a[0] * a[7] * a[6] * a[1]
        + a[3] * a[4] * a[5] * a[2]
        + a[3] * a[4] * a[6] * a[1]
        + a[5] * a[2] * a[6] * a[1]
    )
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return d1 - 2.0 * d2 + 4.0 * d3


def _haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _apply_local(state, ops):
    t = state.amps.reshape((2,) * state.n)
    for j, u in enumerate(ops):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [j])), 0, j)
    return make_state(state.n, t.reshape(-1), normalize=True)


def test_partial_trace_properties():
    for n in (2, 3, 4):
        s = random_state(n, seed=81, index=n)
        for keep in range(n):
            rho = partial_trace_to_single(s, keep)
            assert rho.shape == (2, 2)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() > -1e-12


def test_partial_trace_matches_dense_oracle():
    # compare against the full density matrix traced the long way, for
    # every qubit of Haar states on 2..4 qubits
    for n in (2, 3, 4):
        for k in range(20):
            s = random_state(n, seed=82, index=k)
            full = np.outer(s.amps, s.amps.conj()).reshape((2,) * (2 * n))
            for keep in range(n):
                row = "abcd"[:keep] + "i" + "abcd"[keep + 1 : n]
                oracle = np.einsum(f"{row}{row.replace('i', 'j')}->ij", full)
                rho = partial_trace_to_single(s, keep)
                assert np.max(np.abs(rho - oracle)) < 1e-15
                # exactly Hermitian, and 4 det rho is tau_one_rest's own sum
                assert np.array_equal(rho, rho.conj().T)
                det = rho[0, 0].real * rho[1, 1].real - (rho[0, 1].real ** 2 + rho[0, 1].imag ** 2)
                assert 4.0 * det == tau_one_rest(s, keep)


def test_partial_trace_index_check():
    with pytest.raises(ValueError):
        partial_trace_to_single(bell_state(), 2)
    # -1 must not wrap around to the last qubit, and n must not reach numpy
    # True once gathered a (1, 2, 4) array: tau 0.0, separable, rho all ones
    for q in (-1, 3, True, np.True_, 1.0):
        for oracle in (tau_one_rest, separable_one_rest, partial_trace_to_single):
            with pytest.raises(ValueError, match="out of range"):
                oracle(ghz_state(3), q)
    assert abs(tau_one_rest(bell_state(), np.int64(1)) - 1.0) < 1e-15


def test_concurrence_examples():
    assert abs(concurrence(bell_state()) - 1.0) < 1e-15
    assert concurrence(basis_state(2, "01")) == 0.0
    s = make_state(2, np.array([0.6, 0.0, 0.0, 0.8]))
    assert abs(concurrence(s) - 2 * 0.48) < 1e-15
    with pytest.raises(ValueError):
        concurrence(ghz_state(3))


def test_concurrence_local_unitary_invariant():
    rng = np.random.default_rng(83)
    s = random_state(2, seed=84)
    c0 = concurrence(s)
    for _ in range(20):
        rotated = _apply_local(s, [_haar_unitary(rng), _haar_unitary(rng)])
        assert abs(concurrence(rotated) - c0) < 1e-12


def test_hyperdeterminant_ghz():
    det = hyperdeterminant_222(ghz_state(3))
    assert abs(det - (-0.25)) < 1e-15
    assert abs(three_tangle(ghz_state(3)) - 1.0) < 1e-12
    for s in (bell_state(), ghz_state(4)):
        with pytest.raises(ValueError):
            hyperdeterminant_222(s)


def test_hyperdeterminant_matches_quartic_polynomial():
    # the bilinear-form construction agrees with the classical quartic,
    # up to the overall orientation sign
    for k in range(100):
        s = random_state(3, seed=85, index=k)
        lhs = hyperdeterminant_222(s)
        rhs = -_cayley_quartic(s.amps)
        assert abs(lhs - rhs) < 1e-12


def test_tangles_hash_the_same_on_every_cpu():
    # sha256 over the concurrence of 2,000 two-qubit random states, and the
    # hyperdeterminant and pair tangles of 2,000 three-qubit ones.  A kernel
    # that sums these terms in another order changes this digest, and must
    # re-pin it.
    digest = hashlib.sha256()
    for k in range(2000):
        digest.update(np.float64(concurrence(random_state(2, 2026, k))).tobytes())
        s = random_state(3, 2026, k)
        digest.update(np.complex128(hyperdeterminant_222(s)).tobytes())
        digest.update(np.array(pair_tangles(s)).tobytes())
    assert digest.hexdigest() == (
        "b4d6db763bffdd9c9dc8de25441e271137377d52df95a99c48eeff601175855d"
    )


def _exact_gram(row):
    # Test-only oracle: the spin-flip Gram of one row of complex amplitudes
    # (or of (re, im) pairs of Fractions), exactly, as rows of (re, im)
    # Fraction pairs: G_kl = sum_a (-1)**popcount(a) v_k[a] v_l[a ^ 3].
    v = [(Fraction(z[0]), Fraction(z[1])) if isinstance(z, tuple)
         else (Fraction(float(z.real)), Fraction(float(z.imag))) for z in row]
    m = len(v) // 4

    def entry(k, l):
        re = im = Fraction(0)
        for a in range(4):
            sign = (-1) ** bin(a).count("1")
            (pr, pi), (qr, qi) = v[4 * k + a], v[4 * l + (a ^ 3)]
            re += sign * (pr * qr - pi * qi)
            im += sign * (pr * qi + pi * qr)
        return re, im

    return [[entry(k, l) for l in range(m)] for k in range(m)]


def _exact_det(gram):
    (a, b), (c, d) = gram
    return (a[0] * d[0] - a[1] * d[1] - (b[0] * c[0] - b[1] * c[1]),
            a[0] * d[1] + a[1] * d[0] - (b[0] * c[1] + b[1] * c[0]))


def _exact_abs(z):
    # |re + i im| of Fractions, to 60 digits
    square = z[0] * z[0] + z[1] * z[1]
    with decimal.localcontext(decimal.Context(prec=60)):
        return (decimal.Decimal(square.numerator) / decimal.Decimal(square.denominator)).sqrt()


def _error(value, exact):
    with decimal.localcontext(decimal.Context(prec=60)):
        return float(abs(decimal.Decimal(value) - exact))


def test_tangles_within_the_parents_error_of_exact():
    # The worst error against the exact Gram over the float inputs, for the
    # concurrence of random_state(2, 2501, k) and the three-tangle of
    # random_state(3, 2501, k), k < 1000.  The ceilings are the worst errors
    # measured at the parent (1.9516e-16 and 2.8689e-16), whose concurrence
    # was the closed form 2|a00 a11 - a01 a10| and whose hyperdeterminant
    # was an einsum.
    worst_concurrence = worst_three_tangle = 0.0
    for k in range(1000):
        s = random_state(2, 2501, k)
        (g,), = _exact_gram(s.amps)
        worst_concurrence = max(worst_concurrence, _error(concurrence(s), _exact_abs(g)))
        s = random_state(3, 2501, k)
        exact = 4 * _exact_abs(_exact_det(_exact_gram(s.amps[_FRONT[3][2]])))
        worst_three_tangle = max(worst_three_tangle, _error(three_tangle(s), exact))
    assert worst_concurrence <= 1.952e-16
    assert worst_three_tangle <= 2.869e-16


def _gram_reference(row, m):
    # G = H + H^T with H_kl = v_k[0] v_l[3] - v_k[1] v_l[2], in Python floats.
    v = [_Complex((float(z.real), float(z.imag))) for z in row]
    h = [[v[4 * k] * v[4 * l + 3] - v[4 * k + 1] * v[4 * l + 2] for l in range(m)]
         for k in range(m)]
    return [[h[k][l] + h[l][k] for l in range(m)] for k in range(m)]


def _hostile_rows(n, rows):
    # Signed zeros, subnormals, units and magnitudes 2**-200..2**200.  The
    # scale is an exact ldexp, so the rows have the same bits on every CPU
    # (numpy's 10.0 ** k runs SIMD pow loops whose last bits differ).
    rng = np.random.default_rng(40 * n + rows)
    shape = (rows, 1 << n, 2)
    special = rng.choice([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0], shape)
    wide = np.ldexp(rng.standard_normal(shape), rng.integers(-200, 200, shape))
    return np.where(rng.random(shape) < 0.3, special, wide).view(np.complex128)[..., 0]


@pytest.mark.parametrize("rows", [1, 2, 17])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_spin_flip_gram_rows_alone_and_as_python_floats(n, rows):
    # Each row's Gram is m rows of m (re, im) Python-float pairs, exactly
    # symmetric, bit for bit the row alone, and equal to the reference as
    # numbers (the sign of a zero is pinned by the digest below).
    amps = _hostile_rows(n, rows)
    m = 1 << (n - 2)
    grams = _spin_flip_gram(amps)
    assert len(grams) == rows
    for row, gram in enumerate(grams):
        parts = np.array(gram)
        assert parts.shape == (m, m, 2)
        assert {type(x) for line in gram for entry in line for x in entry} == {float}
        assert parts.tobytes() == parts.swapaxes(0, 1).tobytes()
        assert np.array(_spin_flip_gram(amps[row:row + 1])[0]).tobytes() == parts.tobytes()
        assert gram == _gram_reference(amps[row], m)


def test_spin_flip_gram_bytes_are_pinned():
    # The float bytes of every Gram of the corpus above, re then im, entry
    # by entry.  Pinned with the numpy batch kernel that the Python-float
    # loop replaced, under default, baseline and AVX2 loops alike.
    digest = hashlib.sha256()
    for n in (2, 3, 4):
        for rows in (1, 2, 17):
            for gram in _spin_flip_gram(_hostile_rows(n, rows)):
                digest.update(np.array(gram).tobytes())
    assert digest.hexdigest() == (
        "ed2879b7a708939adfd60795a6e08bb044a795d3363e229a58879dff887ef467"
    )


def test_three_tangle_examples():
    assert three_tangle(w_state(3)) < 1e-12
    assert three_tangle(basis_state(3, "000")) == 0.0
    # |0> tensor Bell has no genuine three-way entanglement
    s = make_state(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2))
    assert three_tangle(s) < 1e-15


def test_three_tangle_local_unitary_invariant():
    rng = np.random.default_rng(86)
    for k in range(10):
        s = random_state(3, seed=87, index=k)
        t0 = three_tangle(s)
        rotated = _apply_local(s, [_haar_unitary(rng) for _ in range(3)])
        assert abs(three_tangle(rotated) - t0) < 1e-11


def test_three_tangle_permutation_symmetric():
    for k in range(20):
        s = random_state(3, seed=88, index=k)
        t0 = three_tangle(s)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            assert abs(three_tangle(permute_qubits(s, perm)) - t0) < 1e-12


def test_two_tangles_ghz_and_w():
    taus = two_tangles(ghz_state(3))
    assert all(abs(t - 1.0) < 1e-12 for t in taus)
    taus = two_tangles(w_state(3))
    assert all(abs(t - 8.0 / 9.0) < 1e-12 for t in taus)
    for s in (bell_state(), ghz_state(4)):
        with pytest.raises(ValueError):
            two_tangles(s)


def test_two_tangles_partial_product():
    s = make_state(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2))
    taus = two_tangles(s)
    assert abs(taus[0]) < 1e-12              # the split-off qubit
    assert abs(taus[1] - 1.0) < 1e-12        # each Bell member vs rest
    assert abs(taus[2] - 1.0) < 1e-12


def test_tangle_monogamy():
    # the three-way tangle never exceeds any one-vs-rest tangle
    for k in range(200):
        s = random_state(3, seed=89, index=k)
        t3 = three_tangle(s)
        for tau in two_tangles(s):
            assert t3 <= tau + 1e-9


_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _wootters_c2(state, traced):
    # Test-only oracle: squared concurrence of the two qubits left after
    # tracing out `traced` (Wootters 1998), from the square roots of the
    # eigenvalues of rho (sy x sy) rho* (sy x sy), largest minus the rest.
    m = np.moveaxis(state.amps.reshape(2, 2, 2), traced, 2).reshape(4, 2)
    rho = m @ m.conj().T
    ev = np.linalg.eigvals(rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1:].sum()) ** 2


def test_three_qubit_link_to_pair_and_three_tangles():
    # The paper's three-qubit link in Coffman-Kundu-Wootters form: the
    # leading qubit's E is C^2_AB + C^2_AC + tau_ABC.  pair_tangles gives
    # the C^2 of the Wootters oracle.
    for k in range(1000):
        s = random_state(3, 2501, k)
        oracle = (_wootters_c2(s, 2), _wootters_c2(s, 1), _wootters_c2(s, 0))
        assert np.allclose(pair_tangles(s), oracle, rtol=0.0, atol=1e-6)
        split = oracle[0] + oracle[1] + three_tangle(s)
        assert abs(e_measure(s)[0] - split) < 1e-6
    for s, pairs, tau3 in ((ghz_state(3), (0.0, 0.0, 0.0), 1.0),
                           (w_state(3), (4 / 9, 4 / 9, 4 / 9), 0.0)):
        got = (_wootters_c2(s, 2), _wootters_c2(s, 1), three_tangle(s))
        assert np.allclose(got, (*pairs[:2], tau3), rtol=0.0, atol=1e-12), got
        assert np.allclose(pair_tangles(s), pairs, rtol=0.0, atol=1e-12)


def test_pair_tangles_of_w3_are_exactly_four_ninths():
    # W3 with amplitudes 1 (norm squared 3): each pair's exact Gram has
    # det G = 0, so its tangle sum |G_kl|^2 - 2|det G| is sum |G_kl|^2,
    # and the tangles are quartic, so the unit state's are those over 9.
    w = [(0, 0), (1, 0), (1, 0), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0)]
    for front in _FRONT[3]:
        gram = _exact_gram([w[j] for j in front])
        assert _exact_det(gram) == (0, 0)
        assert sum(re * re + im * im for line in gram for re, im in line) / 9 == Fraction(4, 9)
    assert np.allclose(pair_tangles(w_state(3)), [4 / 9] * 3, rtol=0.0, atol=1e-15)


def _draw_haar_or_sparse(data, n):
    # A Haar state, or a sparse one whose floats are mostly signed zeros.
    if data.draw(st.booleans()):
        return random_state(n, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(0, 99)))
    parts = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                               min_size=2 << n, max_size=2 << n).filter(any))
    return make_state(n, np.array(parts).view(np.complex128), normalize=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_vs_rest_splits_into_pair_and_three_tangles(data):
    # CKW: each qubit's one-vs-rest tangle is its two pair tangles plus the
    # three-tangle, over Haar states and sparse signed-zero ones; the pair
    # tangles stay put under a Haar one-qubit unitary, and the report holds
    # the public functions' bits.
    s = _draw_haar_or_sparse(data, 3)
    ab, ac, bc = pair_tangles(s)
    tau3 = three_tangle(s)
    assert abs(e_measure(s)[0] - (ab + ac + tau3)) <= 1e-14
    for q, (p1, p2) in enumerate(((ab, ac), (ab, bc), (ac, bc))):
        assert abs(tau_one_rest(s, q) - (p1 + p2 + tau3)) <= 1e-14
    ops = [np.eye(2)] * 3
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ops[data.draw(st.integers(0, 2))] = _haar_unitary(rng)
    assert np.allclose(pair_tangles(_apply_local(s, ops)), (ab, ac, bc), rtol=0.0, atol=1e-14)
    report = analysis_report(s)
    assert np.array(report["pair_tangles"]).tobytes() == np.array([ab, ac, bc]).tobytes()
    assert np.float64(report["three_tangle"]).tobytes() == np.float64(tau3).tobytes()


def test_tau_one_rest_range_and_permutation():
    for n in (2, 3, 4):
        for k in range(50):
            s = random_state(n, seed=90 + n, index=k)
            for q in range(n):
                tau = tau_one_rest(s, q)
                assert -1e-12 <= tau <= 1.0 + 1e-12
                moved = bring_to_front(s, q)
                assert abs(tau_one_rest(moved, 0) - tau) < 1e-12


def test_separable_one_rest():
    s = product_state([[1, 1], [1, -1], [0.5, 0.5j]])
    for q in range(3):
        assert separable_one_rest(s, q)
    for q in range(3):
        assert not separable_one_rest(ghz_state(3), q)
    half = make_state(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2))
    assert separable_one_rest(half, 0)
    assert not separable_one_rest(half, 1)


def test_classify_three():
    assert classify_three(basis_state(3, "000")) == "fully-separable"
    assert classify_three(product_state([[1, 2], [3, 4j], [1, 1]])) == "fully-separable"
    half = make_state(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2))
    assert classify_three(half) == "bi-separable"
    assert classify_three(ghz_state(3)) == "entangled"
    assert classify_three(w_state(3)) == "entangled"
    # a factor with one component near zero, split off at each position,
    # leaves the class its separable list gives
    for tiny in ([1e-12, 1], [1, 1e-12j]):
        for rest, expected in ((product_state([[1, 2j], [3, 1]]), "fully-separable"),
                               (bell_state(), "bi-separable")):
            s = make_state(3, np.kron(np.array(tiny, dtype=complex), rest.amps), normalize=True)
            for perm in ([0, 1, 2], [1, 0, 2], [1, 2, 0]):
                assert classify_three(permute_qubits(s, perm)) == expected
    with pytest.raises(ShapeError):
        classify_three(bell_state())


def permute_qubits_badly(state):
    return permute_qubits(state, [0] * (state.n + 1))


# (function, the qubit counts it takes, the error and message of any other
# count): a StateError, which the CLI maps to exit 2, and a ShapeError where
# the count is what is wrong.  No permutation of n + 1 entries fits n qubits.
_N_SPECIFIC = [
    (concurrence, {2}, ShapeError, "concurrence is defined for 2 qubits"),
    (hyperdeterminant_222, {3}, ShapeError, "the hyperdeterminant is defined for 3 qubits"),
    (three_tangle, {3}, ShapeError, "the hyperdeterminant is defined for 3 qubits"),
    (pair_tangles, {3}, ShapeError, "pair_tangles is defined for 3 qubits"),
    (two_tangles, {3}, ShapeError, "two_tangles is defined for 3 qubits"),
    (classify_three, {3}, ShapeError, "classification is defined for 3 qubits"),
    (e_measure, {2, 3, 4}, ShapeError, "entanglement measure needs at least 2 qubits"),
    (hopf_quotient, {2, 3, 4}, ShapeError, "quotient is defined for 2..4 qubits"),
    (ball_coordinates, {4}, ShapeError, "ball coordinates are defined for 4 qubits"),
    (is_mes, {4}, ShapeError, "ball coordinates are defined for 4 qubits"),
    (permute_qubits_badly, set(), StateError, "perm must be a permutation"),
]


@pytest.mark.parametrize(
    "func, defined, error, message",
    _N_SPECIFIC,
    ids=[func.__name__ for func, *_ in _N_SPECIFIC],
)
def test_n_specific_functions_raise_typed_errors(func, defined, error, message):
    for n in range(1, 5):
        state = random_state(n, seed=7)
        if n in defined:
            func(state)
        else:
            with pytest.raises(error, match=message) as info:
                func(state)
            assert isinstance(info.value, ValueError)
