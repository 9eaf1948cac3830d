import numpy as np
import pytest

from hopfq.braket import parse_state
from hopfq.cdnum import CDElement, basis, cd_conj, cd_mul, cd_norm_sq, from_complex_pairs
from hopfq.fibration import (
    BaseCoordinates,
    _quotient_blocks_3,
    _quotient_blocks_4,
    ball_coordinates,
    base_coordinates,
    e_measure,
    hopf_quotient,
    is_mes,
)
from hopfq.states import (
    basis_state,
    bell_state,
    encode_pair,
    ghz_state,
    make_state,
    product_state,
    random_state,
    w_state,
)
from hopfq.tangles import concurrence, partial_trace_to_single, tau_one_rest


def _random_product(n, split, rng):
    """Random pure state that factors over the given qubit grouping."""
    parts = []
    for group in split:
        k = len(group)
        z = rng.standard_normal(1 << k) + 1j * rng.standard_normal(1 << k)
        parts.append(z / np.linalg.norm(z))
    amps = np.array([1.0 + 0j])
    for z in parts:
        amps = np.kron(amps, z)
    # reorder from group order back to qubit order
    order = [q for group in split for q in group]
    t = amps.reshape((2,) * n)
    inverse = np.argsort(order)
    amps = np.transpose(t, axes=inverse).reshape(-1)
    return make_state(n, amps, normalize=True)


def test_bell_base_coordinates():
    bc = base_coordinates(bell_state())
    assert abs(bc.delta) < 1e-15
    assert np.max(np.abs(bc.comps - np.array([0, 0, 1, 0]))) < 1e-15
    assert abs(bc.e_complement - 1.0) < 1e-15
    assert abs(bc.e_sum - 1.0) < 1e-15


def test_separable_basis_state_is_north_pole():
    bc = base_coordinates(basis_state(2, "01"))
    assert bc.delta == 1.0
    assert np.max(np.abs(bc.comps)) == 0.0
    assert abs(bc.e_complement) < 1e-15
    bc4 = base_coordinates(basis_state(4, "0000"))
    assert bc4.delta == 1.0 and np.max(np.abs(bc4.comps)) == 0.0


def test_ghz3_base_coordinates():
    bc = base_coordinates(ghz_state(3))
    assert abs(bc.delta) < 1e-15
    assert abs(bc.comps[6] - 1.0) < 1e-15
    others = [abs(bc.comps[k]) for k in range(8) if k != 6]
    assert max(others) < 1e-15
    e = e_measure(ghz_state(3))
    assert abs(e[0] - 1.0) < 1e-12 and abs(e[1] - 1.0) < 1e-12


def test_ghz4_measure():
    e = e_measure(ghz_state(4))
    assert e[0] == 1.0
    assert abs(e[1] - 1.0) < 1e-12
    assert abs(e[2]) < 1e-12
    assert ball_coordinates(ghz_state(4)) == (0.0, 0.0, 0.0)
    assert is_mes(ghz_state(4))


def test_single_excitation_4_measure():
    # both four-qubit single/triple-excitation symmetric states give 3/4
    e = e_measure(w_state(4))
    assert abs(e[0] - 0.75) < 1e-12 and abs(e[1] - 0.75) < 1e-12
    x, y, z = ball_coordinates(w_state(4))
    assert abs(x) < 1e-15 and abs(y) < 1e-15 and abs(z - 0.5) < 1e-12
    assert not is_mes(w_state(4))


def test_triple_excitation_4_measure():
    s = parse_state("1/2*(|0111> + |1011> + |1101> + |1110>)")
    e = e_measure(s)
    assert abs(e[0] - 0.75) < 1e-12 and abs(e[1] - 0.75) < 1e-12
    x, y, z = ball_coordinates(s)
    assert abs(z + 0.5) < 1e-12


def test_sphere_identity_small_n():
    # for 1..3 qubits the image lies on a unit sphere
    worst = 0.0
    for n in (1, 2, 3):
        for k in range(200):
            bc = base_coordinates(random_state(n, seed=40 + n, index=k))
            r2 = bc.delta**2 + float(np.sum(bc.comps**2))
            worst = max(worst, abs(r2 - 1.0))
    assert worst < 1e-12


def test_defect_identity_every_n():
    # e_complement - e_sum equals 4(|u1|^2|u2|^2 - |P|^2) by construction;
    # the stored norm_defect must satisfy it to roundoff
    for n in (1, 2, 3, 4):
        for k in range(100):
            s = random_state(n, seed=50 + n, index=k)
            bc = base_coordinates(s)
            assert abs((bc.e_complement - bc.e_sum) - bc.norm_defect) < 1e-12
            enc = encode_pair(s)
            p = cd_mul(enc.u2, cd_conj(enc.u1))
            direct = 4.0 * (cd_norm_sq(enc.u1) * cd_norm_sq(enc.u2) - cd_norm_sq(p))
            assert abs(bc.norm_defect - direct) < 1e-12


def test_e_equals_concurrence_squared_2():
    for k in range(200):
        s = random_state(2, seed=61, index=k)
        e = e_measure(s)
        c2 = concurrence(s) ** 2
        assert abs(e[0] - c2) < 1e-12
        assert abs(e[1] - c2) < 1e-12


def _four_det_rho(state):
    rho = partial_trace_to_single(state, keep=0)
    return 4.0 * float(np.real(np.linalg.det(rho)))


def test_e_equals_four_det_rho_3_and_4():
    for n in (3, 4):
        worst = 0.0
        for k in range(200):
            s = random_state(n, seed=62 + n, index=k)
            e = e_measure(s)
            worst = max(worst, abs(e[0] - _four_det_rho(s)))
        assert worst < 1e-12


def test_bloch_vector_single_qubit():
    # (comps[0], comps[1], delta) is the Bloch vector of the qubit
    for k in range(100):
        s = random_state(1, seed=64, index=k)
        bc = base_coordinates(s)
        rho = np.outer(s.amps, np.conj(s.amps))
        x = 2 * np.real(rho[0, 1])
        y = -2 * np.imag(rho[0, 1])
        z = np.real(rho[0, 0] - rho[1, 1])
        assert abs(bc.comps[0] - x) < 1e-14
        assert abs(bc.comps[1] - y) < 1e-14
        assert abs(bc.delta - z) < 1e-14


def test_explicit_unit_expansion_matches_coordinates_4():
    # the full coordinate list can be read off scalar parts of unit products:
    # comps[0] from u1*conj(u2) + u2*conj(u1), comps[k] from i_k times the
    # difference, delta from the norm split
    for k in range(50):
        s = random_state(4, seed=65, index=k)
        enc = encode_pair(s)
        bc = base_coordinates(s)
        s1c2 = cd_mul(enc.u1, cd_conj(enc.u2))
        s2c1 = cd_mul(enc.u2, cd_conj(enc.u1))
        total = s1c2 + s2c1
        diff = s1c2 - s2c1
        assert abs(total.coeffs[0] - bc.comps[0]) < 1e-14
        for j in range(1, 16):
            xj = cd_mul(basis(4, j), diff).coeffs[0]
            assert abs(xj - bc.comps[j]) < 1e-13
        assert abs((cd_norm_sq(enc.u1) - cd_norm_sq(enc.u2)) - bc.delta) < 1e-14


def test_quotient_bell():
    num, den = hopf_quotient(bell_state())
    assert abs(den - 0.5) < 1e-15
    assert np.max(np.abs(num.coeffs - np.array([0, 0, 0.5, 0]))) < 1e-15


def test_quotient_ghz3():
    num, den = hopf_quotient(ghz_state(3))
    assert abs(den - 0.5) < 1e-15
    expected = 0.5 * basis(3, 6).coeffs
    assert np.max(np.abs(num.coeffs - expected)) < 1e-15


def test_quotient_plus_times_bell_is_complex():
    # (|0>+|1>)/sqrt(2) tensor Bell lands in the pure complex subspace
    s = make_state(3, np.array([1, 0, 0, 1, 1, 0, 0, 1]) / 2.0)
    num, den = hopf_quotient(s)
    assert abs(den - 0.5) < 1e-15
    assert abs(num.coeffs[0] - 0.5) < 1e-15
    assert np.max(np.abs(num.coeffs[1:])) < 1e-15


def test_quotient_point_at_infinity():
    # first qubit |0> forces every amplitude in the second half to vanish
    s = make_state(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / np.sqrt(2))
    num, den = hopf_quotient(s)
    assert den == 0.0
    assert np.max(np.abs(num.coeffs)) < 1e-15


def test_quotient_projective_consistency_2():
    # numerator coefficients track u1*conj(u2) with a fixed sign pattern
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    for k in range(100):
        s = random_state(2, seed=66, index=k)
        enc = encode_pair(s)
        num, den = hopf_quotient(s)
        ref = cd_mul(enc.u1, cd_conj(enc.u2))
        assert abs(den - cd_norm_sq(enc.u2)) < 1e-14
        assert np.max(np.abs(num.coeffs - signs * ref.coeffs)) < 1e-12


def test_quotient_projective_consistency_3():
    signs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    for k in range(100):
        s = random_state(3, seed=67, index=k)
        enc = encode_pair(s)
        num, den = hopf_quotient(s)
        ref = cd_mul(enc.u1, cd_conj(enc.u2))
        assert abs(den - cd_norm_sq(enc.u2)) < 1e-14
        assert np.max(np.abs(num.coeffs - signs * ref.coeffs)) < 1e-12


def test_quotient_no_global_sign_relation_4():
    # at four qubits the published block constants stop being a coordinatewise
    # sign flip of u1*conj(u2); pin one seeded witness
    s = random_state(4, seed=68, index=0)
    enc = encode_pair(s)
    num, _ = hopf_quotient(s)
    ref = cd_mul(enc.u1, cd_conj(enc.u2)).coeffs
    mask = np.abs(ref) > 1e-3
    ratio = num.coeffs[mask] / ref[mask]
    deviation = float(np.max(np.abs(np.abs(ratio) - 1.0)))
    assert deviation > 0.05


def test_quotient_numerators_equal_the_product_form():
    # the numerator is sum_k block_k * i_unit_k, once written with cd_mul
    for n, step in ((3, 2), (4, 4)):
        for k in range(60):
            s = random_state(n, seed=70 + n, index=k)
            if n == 3:
                blocks, _ = _quotient_blocks_3(s.amps)
                embed = [from_complex_pairs(3, [b, 0, 0, 0]) for b in blocks]
            else:
                blocks, _ = _quotient_blocks_4(s.amps)
                embed = [CDElement(4, np.concatenate([b.coeffs, np.zeros(12)])) for b in blocks]
            want = sum(
                (cd_mul(x, basis(n, step * j)).coeffs for j, x in enumerate(embed)),
                np.zeros(1 << n),
            )
            np.testing.assert_array_equal(hopf_quotient(s)[0].coeffs, want)


def test_quotient_rejects_single_qubit():
    with pytest.raises(ValueError):
        hopf_quotient(random_state(1, seed=69))


def test_ball_radius_identity():
    for k in range(200):
        s = random_state(4, seed=70, index=k)
        x, y, z = ball_coordinates(s)
        e = e_measure(s)
        assert abs((x * x + y * y + z * z) - (1.0 - e[0])) < 1e-12
        assert x * x + y * y + z * z < 1.0 + 1e-12


def test_products_reach_ball_boundary():
    rng = np.random.default_rng(71)
    splits = [
        [(0,), (1, 2, 3)],
        [(0,), (1,), (2, 3)],
        [(0,), (2,), (1, 3)],
        [(0,), (3,), (1, 2)],
        [(0,), (1,), (2,), (3,)],
    ]
    for split in splits:
        for _ in range(40):
            s = _random_product(4, split, rng)
            x, y, z = ball_coordinates(s)
            r2 = x * x + y * y + z * z
            assert abs(r2 - 1.0) < 1e-9
            e = e_measure(s)
            assert e[0] < 1e-9


def test_ball_requires_four_qubits():
    with pytest.raises(ValueError):
        ball_coordinates(ghz_state(3))


def test_mes_examples():
    assert is_mes(ghz_state(4))
    assert not is_mes(w_state(4))
    assert not is_mes(basis_state(4, "0000"))
    balanced = parse_state(
        "3|0000>+3|1111>-|0011>-|1100>+3|0101>+3|1010>-|0110>-|1001>",
        normalize=True,
    )
    assert is_mes(balanced)
    e = e_measure(balanced)
    assert abs(e[0] - 1.0) < 1e-12


def test_measure_values_never_dip_negative():
    rng = np.random.default_rng(72)
    splits = [[(0,), (1, 2, 3)], [(0,), (1,), (2,), (3,)]]
    for split in splits:
        for _ in range(50):
            s = _random_product(4, split, rng)
            e = e_measure(s)
            assert e[0] >= 0.0
    # raw coordinates stay unsnapped
    bc = base_coordinates(ghz_state(4))
    assert isinstance(bc, BaseCoordinates)
    assert abs(bc.e_complement - 1.0) < 1e-15


def test_tau_matches_measure_front_qubit():
    # 4*det(rho) computed from the reduced density matrix agrees with the
    # geometric value for every qubit count
    for n in (2, 3, 4):
        s = random_state(n, seed=73, index=n)
        assert abs(tau_one_rest(s, 0) - e_measure(s)[0]) < 1e-12
