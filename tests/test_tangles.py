import numpy as np
import pytest

from hopfq.states import (
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
    classify_three,
    concurrence,
    hyperdeterminant_222,
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
    # compare against the full density matrix traced the long way
    s = random_state(3, seed=82)
    full = np.outer(s.amps, s.amps.conj()).reshape(2, 2, 2, 2, 2, 2)
    rho1 = np.einsum("aibajb->ij", full)
    assert np.max(np.abs(partial_trace_to_single(s, 1) - rho1)) < 1e-12


def test_partial_trace_index_check():
    with pytest.raises(ValueError):
        partial_trace_to_single(bell_state(), 2)
    # -1 must not wrap around to the last qubit, and n must not reach numpy
    for q in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            separable_one_rest(ghz_state(3), q)


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


def test_hyperdeterminant_matches_quartic_polynomial():
    # the bilinear-form construction agrees with the classical quartic,
    # up to the overall orientation sign
    for k in range(100):
        s = random_state(3, seed=85, index=k)
        lhs = hyperdeterminant_222(s)
        rhs = -_cayley_quartic(s.amps)
        assert abs(lhs - rhs) < 1e-12


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
    with pytest.raises(ValueError):
        classify_three(bell_state())
