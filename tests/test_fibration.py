from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq.braket import parse_amplitudes, parse_state
from hopfq.cdnum import (
    CDElement,
    _conj_coeffs,
    _mul,
    _sign_rows,
    basis,
    cd_conj,
    cd_inverse,
    cd_mul,
    cd_norm_sq,
    from_complex_pairs,
)
from hopfq.fibration import (
    BaseCoordinates,
    _base_point,
    _quotient_blocks_2,
    _quotient_blocks_3,
    _quotient_blocks_4,
    ball_coordinates,
    base_coordinates,
    e_measure,
    hopf_quotient,
    is_mes,
)
from hopfq.reporting import PUBLISHED_STATES, analysis_report
from hopfq.states import (
    _FRONT,
    PairEncoding,
    QubitState,
    _pair_parts,
    basis_state,
    bell_state,
    bring_to_front,
    decode_pair,
    encode_pair,
    ghz_state,
    make_state,
    product_state,
    random_state,
    w_state,
)
from hopfq.tangles import _tau_front, concurrence, partial_trace_to_single, tau_one_rest
from conftest import _Complex
from test_tangles import _apply_local, _draw_haar_or_sparse, _haar_unitary


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


def test_w0_and_w1_share_every_even_function_of_the_base_point():
    # W1 is W0 with X on every qubit.  For each split qubit, delta flips sign
    # and the |P_k| agree, so any function of delta^2 and the |P_k| (E,
    # e_sum, the defect, the ball radius) gives both the same value, never
    # the published pair (1/2, 3/4).
    published = dict(PUBLISHED_STATES)
    w0 = parse_state(published["W0 (4 qubits)"])
    w1 = parse_state(published["W1 (4 qubits)"])
    for q in range(4):
        b0, b1 = (base_coordinates(bring_to_front(s, q)) for s in (w0, w1))
        assert (b0.delta, b1.delta) == (0.5, -0.5)
        assert sorted(np.abs(b0.comps).tolist()) == sorted(np.abs(b1.comps).tolist())
        for s in (w0, w1):
            assert e_measure(bring_to_front(s, q)) == (0.75, 0.75, 0.0)


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


def _draw_unit_state(data, n):
    # A unit n-qubit state normalized from any finite doubles.
    finite = st.floats(allow_nan=False, allow_infinity=False)
    parts = data.draw(st.lists(finite, min_size=2 << n, max_size=2 << n))
    assume(any(parts))
    return make_state(n, np.array(parts).view(np.complex128), normalize=True)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 4), data=st.data())
def test_e_complement_is_tau_of_the_leading_qubit(n, data):
    # An identity, not a cross-check: both sides are the same quartic form
    # in the amplitudes, 4 det(rho) of qubit 0, so only rounding parts them.
    s = _draw_unit_state(data, n)
    assert abs(base_coordinates(s).e_complement - tau_one_rest(s, 0)) <= 1e-14


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 4), data=st.data())
def test_e_is_a_local_unitary_invariant(n, data):
    # A Haar-random unitary on one qubit leaves e_complement put for every n
    # and e_sum for n <= 3; at n = 4 the sum form moves (see the Phi2 test).
    s = _draw_unit_state(data, n)
    ops = [np.eye(2)] * n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ops[data.draw(st.integers(0, n - 1))] = _haar_unitary(rng)
    before, after = base_coordinates(s), base_coordinates(_apply_local(s, ops))
    assert abs(after.e_complement - before.e_complement) <= 1e-12
    if n <= 3:
        assert abs(after.e_sum - before.e_sum) <= 1e-12


# The published states whose amplitudes are Gaussian integers over one norm
# (all but Phi1, which holds sqrt(2)), with their exact E.
_EXACT_E = {
    "GHZ (4 qubits)": Fraction(1),
    "W0 (4 qubits)": Fraction(3, 4),
    "W1 (4 qubits)": Fraction(3, 4),
    "Phi2 (4 qubits)": Fraction(1),
    "Bell (2 qubits)": Fraction(1),
    "GHZ (3 qubits)": Fraction(1),
    "W (3 qubits)": Fraction(8, 9),
    "|0>xBell (3 qubits)": Fraction(0),
}


def _exact_e(g):
    """(e_complement, e_sum) of g/|g| in Fractions, for Gaussian integers g.

    The pair encoding of integer amplitudes is exact in doubles, and _mul's
    int8 signs keep object arrays of Fractions exact."""
    u1, u2 = (np.array([Fraction(c) for c in u], dtype=object)
              for u in _pair_parts(g.view(np.float64).tolist()))
    n1, n2 = (u1 * u1).sum(), (u2 * u2).sum()
    delta = (n1 - n2) / (n1 + n2)
    comps = 2 * _mul(u2, _conj_coeffs(u1)) / (n1 + n2)
    return 1 - delta**2 - comps[0] ** 2 - comps[1] ** 2, (comps[2:] ** 2).sum()


@pytest.mark.parametrize("label", list(_EXACT_E))
def test_e_of_published_states_is_exact_to_rounding(label):
    text = dict(PUBLISHED_STATES)[label]
    _, raw = parse_amplitudes(text)
    scaled = raw / np.abs(raw[raw != 0]).min()
    g = np.round(scaled.real) + 1j * np.round(scaled.imag)
    assert np.abs(scaled - g).max() < 1e-9
    exact = _exact_e(g)
    assert exact == (_EXACT_E[label], _EXACT_E[label])
    bc = base_coordinates(parse_state(text, normalize=True))
    assert abs(bc.e_complement - exact[0]) <= 1e-15
    assert abs(bc.e_sum - exact[1]) <= 1e-15


def _exact_taus(n, parts):
    """Every one-vs-rest tau of g/|g| in Fractions, from integer Gram sums,
    for the Gaussian integers g with interleaved (re, im) parts."""
    norm = sum(p * p for p in parts)
    amps = list(zip(parts[0::2], parts[1::2]))
    taus = []
    for front in _FRONT[n]:
        a, b = [amps[k] for k in front[: 1 << (n - 1)]], [amps[k] for k in front[1 << (n - 1) :]]
        aa = sum(x * x + y * y for x, y in a)
        bb = sum(x * x + y * y for x, y in b)
        ab_re = sum(x1 * x2 + y1 * y2 for (x1, y1), (x2, y2) in zip(a, b))
        ab_im = sum(x1 * y2 - y1 * x2 for (x1, y1), (x2, y2) in zip(a, b))
        taus.append(Fraction(4 * (aa * bb - ab_re**2 - ab_im**2), norm**2))
    return taus


@settings(deadline=None)
@given(n=st.integers(2, 4), data=st.data())
def test_report_is_exact_to_rounding_on_gaussian_integer_states(n, data):
    # Every exact value has a denominator of at most |g|^4 <= 1568**2, so it
    # is 0, 1, or at least about 4e-7 from both: the 1e-9 boundary snap can
    # only move a value onto its exact 0 or 1.
    parts = data.draw(st.lists(st.integers(-7, 7), min_size=2 << n, max_size=2 << n).filter(any))
    g = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    report = analysis_report(make_state(n, g, normalize=True))
    e_complement, e_sum = _exact_e(g)
    assert abs(report["e_complement"] - e_complement) <= 4e-15
    assert abs(report["e_sum"] - e_sum) <= 4e-15
    for tau, exact in zip(report["tau_one_rest"], _exact_taus(n, parts), strict=True):
        assert abs(tau - exact) <= 4e-15


def test_e_sum_is_not_a_local_unitary_invariant_at_four_qubits():
    # S = diag(1, i) on one qubit of the normalized Phi2 moves the sedenion
    # sum form off 1, while e_complement, a local-unitary invariant, stays 1.
    phi2 = parse_state(dict(PUBLISHED_STATES)["Phi2 (4 qubits)"], normalize=True)
    assert abs(e_measure(phi2)[1] - 1.0) < 1e-12
    for qubit, e_sum in ((1, 0.74), (0, 0.9)):
        phases = np.where(np.arange(16) >> (3 - qubit) & 1, 1j, 1.0)
        e_comp, moved_sum, _ = e_measure(make_state(4, phi2.amps * phases))
        assert abs(e_comp - 1.0) < 1e-12
        assert abs(moved_sum - e_sum) < 1e-12


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


# The fibre over the base point of (u1, u2) is {(y, m*y)}, m = u2 * u1^-1, y
# any nonzero element, scaled to unit norm.  Where the algebra is alternative
# and its norm multiplicative (n <= 3), (m*y)*conj(y) = m |y|^2 and
# |m*y| = |m| |y|, so delta and P / |u1|^2 = m are the same all along it.  At
# n = 2 it is also the orbit {(u1*q, u2*q)} of the unit quaternions q.


def _pair_state(n, y, w):
    # The state of the pair (y, w), scaled to unit norm and decoded.
    scale = 1.0 / np.sqrt(cd_norm_sq(y) + cd_norm_sq(w))
    return decode_pair(PairEncoding(n, scale * y, scale * w))


def _fibre_point(s, y):
    enc = encode_pair(s)
    return _pair_state(s.n, y, cd_mul(cd_mul(enc.u2, cd_inverse(enc.u1)), y))


def _orbit_point(s, q):
    enc = encode_pair(s)
    return _pair_state(s.n, cd_mul(enc.u1, q), cd_mul(enc.u2, q))


def _base_shift(s, t):
    # The largest change of a base coordinate from state s to state t.
    a, b = base_coordinates(s), base_coordinates(t)
    return max(abs(a.delta - b.delta), float(np.max(np.abs(a.comps - b.comps))))


def _gaussian_element(rng, n, unit=False):
    y = CDElement(n, rng.standard_normal(1 << n))
    return (1.0 / np.sqrt(cd_norm_sq(y))) * y if unit else y


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 3), data=st.data())
def test_fibre_keeps_the_base_point(n, data):
    s = _draw_haar_or_sparse(data, n)
    assume(not encode_pair(s).u1.is_zero())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert _base_shift(s, _fibre_point(s, _gaussian_element(rng, n))) <= 1e-14


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_unit_orbit_keeps_the_base_point_2(data):
    s = _draw_haar_or_sparse(data, 2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert _base_shift(s, _orbit_point(s, _gaussian_element(rng, 2, unit=True))) <= 1e-14


def test_unit_orbit_moves_the_base_point_3():
    # unit octonions are not a group: the orbit leaves the fibre
    rng = np.random.default_rng(69)
    s = random_state(3, seed=69, index=0)
    assert _base_shift(s, _orbit_point(s, _gaussian_element(rng, 3, unit=True))) > 0.05


def test_fibre_family_moves_the_base_point_4():
    # sedenions are not alternative: (y, m*y) leaves the fibre
    rng = np.random.default_rng(69)
    s = random_state(4, seed=69, index=0)
    assert _base_shift(s, _fibre_point(s, _gaussian_element(rng, 4))) > 0.05


def test_quotient_misses_delta_4():
    # with x = num / den, delta = (|x|^2 - 1) / (|x|^2 + 1) for n = 2, 3
    # (see test_quotient_projective_consistency_2 and _3) but not at n = 4
    s = random_state(4, seed=69, index=0)
    num, den = hopf_quotient(s)
    x_sq = cd_norm_sq(num) / (den * den)
    assert abs(base_coordinates(s).delta - (x_sq - 1.0) / (x_sq + 1.0)) > 0.05


def test_quotient_numerators_equal_the_product_form():
    # the numerator is sum_k block_k * i_unit_k, once written with cd_mul
    for n, step, quotient_blocks in (
        (2, 2, _quotient_blocks_2), (3, 2, _quotient_blocks_3), (4, 4, _quotient_blocks_4)
    ):
        for k in range(60):
            s = random_state(n, seed=70 + n, index=k)
            blocks = quotient_blocks(s.amps)
            embed = [
                CDElement(n, np.concatenate([b, np.zeros((1 << n) - len(b))])) for b in blocks
            ]
            want = sum(
                (cd_mul(x, basis(n, step * j)).coeffs for j, x in enumerate(embed)),
                np.zeros(1 << n),
            )
            np.testing.assert_array_equal(hopf_quotient(s)[0].coeffs, want)


def _complex_blocks(n, amps):
    # The published n = 2, 3 blocks in complex arithmetic.
    a = [_Complex((float(z.real), float(z.imag))) for z in amps]

    def c(z):
        return _Complex((z[0], -z[1]))

    if n == 2:
        return [c(a[0]) * a[2] + c(a[1]) * a[3], a[0] * a[3] - a[1] * a[2]]
    return [
        a[0] * c(a[4]) + a[1] * c(a[5]) + c(a[6]) * a[2] + c(a[7]) * a[3],
        a[1] * a[4] - a[0] * a[5] + c(a[6] * a[3] - a[7] * a[2]),
        a[2] * a[4] - a[6] * a[0] + c(a[7] * a[1] - a[3] * a[5]),
        a[6] * a[1] - a[2] * a[5] + c(a[7] * a[0] - a[3] * a[4]),
    ]


def _quaternion_blocks(amps):
    # The published n = 4 blocks written with the element API.
    q1, q2, q3, q4, q5, q6, q7, q8 = (
        from_complex_pairs(2, amps[2 * m : 2 * m + 2]) for m in range(8)
    )
    cj = cd_conj
    blocks = (
        cd_mul(q1, cj(q5)) + cd_mul(cj(q6), q2) + cd_mul(cj(q7), q3) + cd_mul(q4, cj(q8)),
        cd_mul(q2, q5) - cd_mul(q6, q1) + cj(cd_mul(q4, q7) - cd_mul(q8, q3)),
        cd_mul(q3, q5) - cd_mul(q7, q1) + cj(cd_mul(q3, q8) - cd_mul(q6, q4)),
        cd_mul(q2, q7) - cd_mul(q6, q3) + cj(cd_mul(q8, q1) - cd_mul(q4, q5)),
    )
    return [b.coeffs for b in blocks]


def _element_quotient(n, amps):
    # The blocks placed on their units with cd_mul and summed in block order.
    if n == 4:
        blocks = _quaternion_blocks(amps)
    else:
        blocks = [np.array(z) for z in _complex_blocks(n, amps)]
    step = (1 << n) // len(blocks)
    placed = [
        cd_mul(CDElement(n, np.concatenate([b, np.zeros((1 << n) - len(b))])),
               basis(n, step * k)).coeffs
        for k, b in enumerate(blocks)
    ]
    return sum(placed[1:], placed[0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_matches_the_published_formulas_bit_for_bit(n):
    # Haar states, then sparse ones whose zero amplitudes carry both signs.
    m = 2 << n
    states = [random_state(n, seed=75, index=k) for k in range(300)]
    rng = np.random.default_rng(76)
    for _ in range(300):
        parts = np.where(rng.random(m) < 0.2, rng.standard_normal(m), 0.0)
        parts[rng.integers(m)] = 1.0
        parts = np.copysign(parts, rng.standard_normal(m))
        states.append(make_state(n, parts.view(np.complex128), normalize=True))
    parts = np.array([s.amps for s in states[300:]]).view(np.float64)
    assert np.signbit(parts[parts == 0.0]).any() and (~np.signbit(parts[parts == 0.0])).any()
    for s in states:
        want = _element_quotient(n, s.amps)
        assert hopf_quotient(s)[0].coeffs.tobytes() == want.tobytes()


def test_four_qubit_quotient_builds_one_element(monkeypatch):
    built = []
    init = CDElement.__init__

    def counted(self, level, coeffs):
        built.append(level)
        init(self, level, coeffs)

    monkeypatch.setattr(CDElement, "__init__", counted)
    hopf_quotient(random_state(4, seed=77))
    assert built == [4]


def test_quotient_rejects_single_qubit():
    with pytest.raises(ValueError):
        hopf_quotient(random_state(1, seed=69))
    with pytest.raises(ValueError):
        e_measure(random_state(1, seed=69))


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


def _slot_sum(terms):
    # From +0.0, one term after another, as every kernel sum adds: a slot of
    # only -0.0 terms sums to +0.0.
    total = 0.0
    for term in terms:
        total += term
    return total


def _reference_point(n, parts):
    """(delta, comps, e_complement, e_sum, norm_defect, tau) of one state's
    parts, P = u2 * conj(u1) read term by term off the sign table."""
    u1, u2 = _pair_parts(parts)
    y = [u1[0]] + [-x for x in u1[1:]]
    signs = _sign_rows(n)
    p = [_slot_sum(signs[a][a ^ k] * (x * y[a ^ k]) for a, x in enumerate(u2))
         for k in range(1 << n)]
    n1, n2, p_sq = (_slot_sum(x * x for x in v) for v in (u1, u2, p))
    comps = [2.0 * x for x in p]
    delta = n1 - n2
    e_complement = 1.0 - delta * delta - comps[0] * comps[0] - comps[1] * comps[1]
    # (Re a, Im a, Re b, Im b) of the halves a and b; g sums c c^T.
    m = len(parts) // 2
    c = (parts[0:m:2], parts[1:m:2], parts[m::2], parts[m + 1::2])
    g = {(r, s): _slot_sum(x * z for x, z in zip(c[r], c[s])) for r in range(4) for s in range(4)}
    aa, bb = g[0, 0] + g[1, 1], g[2, 2] + g[3, 3]
    ab_re, ab_im = g[0, 2] + g[1, 3], g[0, 3] - g[1, 2]
    tau = 4.0 * (aa * bb - (ab_re * ab_re + ab_im * ab_im))
    return (delta, comps, e_complement, _slot_sum(x * x for x in comps[2:]),
            4.0 * (n1 * n2 - p_sq), tau)


_FIELDS = ("delta", "comps", "e_complement", "e_sum", "norm_defect")


def _part_columns(batch):
    # As sample tables feed the kernels: one contiguous (N,) column per part.
    return list(np.ascontiguousarray(np.array(batch, dtype=np.float64).T))


def _column(values, j, shape, count):
    # Column j of a kernel field run on count states; e_sum at n = 1 is the
    # float 0.0 of every column.
    return np.broadcast_to(values, shape + (count,))[..., j]


def _mixed_amplitudes(rng, rows, n):
    # Real and imaginary parts as in test_cdnum's _mixed_floats: signed
    # zeros, subnormals and wide magnitudes, here none so large that a
    # fourth power (n1*n2, aa*bb) overflows.
    shape = (rows, 1 << n, 2)
    special = rng.choice([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0], shape)
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-60, 60, shape)
    return np.where(rng.random(shape) < 0.3, special, wide).view(np.complex128)[..., 0]


@pytest.mark.parametrize("rows", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch_kernels_sum_each_row_alone_in_slot_order(n, rows):
    # A chunk of a sample table runs _base_point and _tau_front on the part
    # columns of its states.  On signed zeros, subnormals and wide
    # magnitudes, every state's column is bit for bit that state computed
    # alone, and its sums add their terms in slot order from +0.0.
    amps = _mixed_amplitudes(np.random.default_rng(10 * n + rows), rows, n)
    columns = list(np.ascontiguousarray(amps.view(np.float64).T))
    bc, tau = _base_point(n, columns), _tau_front(columns)
    for row in range(rows):
        parts = tuple(amps[row].view(np.float64).tolist())
        alone = _base_point(n, parts)
        reference = _reference_point(n, parts)
        for field, expected in zip(_FIELDS, reference):
            assert (np.array(getattr(alone, field)).tobytes()
                    == np.asarray(getattr(bc, field))[..., row].tobytes()
                    == np.array(expected).tobytes())
        assert _tau_front(parts).hex() == tau[row].hex() == reference[-1].hex()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_one_state_in_python_floats_is_its_batch_row(n, data):
    # One state's report runs the kernels on its tuple of Python floats;
    # sample tables run them on part columns.  Every base-map field and
    # every qubit's tau of the one is bit for bit the other's row, on Haar
    # states and on sparse signed-zero ones, normalized or as drawn.
    if data.draw(st.booleans()):
        s = _draw_haar_or_sparse(data, n)
    else:
        parts = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 5e-324]),
                                   min_size=2 << n, max_size=2 << n))
        s = QubitState._trusted(n, tuple(parts))
    bc, batch = base_coordinates(s), _base_point(n, _part_columns([s._parts]))
    for field in _FIELDS:
        one = np.array(getattr(bc, field), dtype=np.float64)
        assert one.tobytes() == _column(getattr(batch, field), 0, one.shape, 1).tobytes()
    taus = np.array([tau_one_rest(s, q) for q in range(n)])
    fronts = _tau_front(_part_columns([bring_to_front(s, q)._parts for q in range(n)]))
    assert taus.tobytes() == fronts.tobytes()
    report = analysis_report(s)
    assert np.array(report["comps"]).tobytes() == _column(batch.comps, 0, (1 << n,), 1).tobytes()
    if n >= 2:
        assert np.array(report["tau_one_rest"]).tobytes() == fronts.tobytes()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), rows=st.integers(1, 6), data=st.data())
def test_kernel_columns_are_each_state_alone_in_slot_order(n, rows, data):
    # sample tables run _base_point and _tau_front on (N,) columns, each one
    # part of every state.  Column j is bit for bit state j alone, on Haar
    # states and sparse signed-zero ones, and every sum adds in slot order
    # from +0.0.  The last state's halves are all +0.0 and all -0.0, so every
    # term of P's real coefficient is -0.0 and the coefficient +0.0.
    batch = [_draw_haar_or_sparse(data, n)._parts for _ in range(rows)]
    batch.append((0.0,) * (1 << n) + (-0.0,) * (1 << n))
    columns = _part_columns(batch)
    bc, tau = _base_point(n, columns), _tau_front(columns)
    for j, parts in enumerate(batch):
        alone = _base_point(n, parts)
        reference = _reference_point(n, parts)
        for field, expected in zip(_FIELDS, reference):
            batched = _column(getattr(bc, field), j, np.shape(expected), len(batch))
            assert (np.array(getattr(alone, field)).tobytes() == batched.tobytes()
                    == np.array(expected).tobytes())
        assert _tau_front(parts).hex() == tau[j].hex() == reference[-1].hex()
    assert bc.comps[0][-1].hex() == "0x0.0p+0"
