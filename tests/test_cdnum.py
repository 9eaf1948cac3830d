import importlib.resources
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hopfq
from hopfq.cdnum import (
    CDElement,
    MAX_LEVEL,
    SingularElementError,
    ZERO_TOL,
    _mul,
    _mul_recursive,
    _norm_sq,
    _sign_rows,
    _xor_terms,
    basis,
    basis_product_table,
    cd_conj,
    cd_inverse,
    cd_mul,
    cd_norm_sq,
    complex_pairs,
    find_basis_zero_divisors,
    from_complex_pairs,
    one,
    zero,
)


def _dist(x, y):
    return float(np.max(np.abs(x.coeffs - y.coeffs)))


def _rand_element(level, rng):
    return CDElement(level, rng.standard_normal(1 << level))


def _unit_sign(x):
    # for an element that should be +-1 times a basis unit, return (sign, index)
    coeffs = x.coeffs
    idx = int(np.argmax(np.abs(coeffs)))
    return float(np.sign(coeffs[idx])), idx


def test_basis_unit_products_quaternion():
    i1 = basis(2, 1)
    i2 = basis(2, 2)
    i3 = basis(2, 3)
    assert _dist(cd_mul(i1, i2), i3) < 1e-15
    assert _dist(cd_mul(i2, i1), -i3) < 1e-15
    assert _dist(cd_mul(i1, i1), -one(2)) < 1e-15
    assert _dist(cd_mul(i3, i3), -one(2)) < 1e-15


def test_basis_unit_products_octonion():
    i1 = basis(3, 1)
    i2 = basis(3, 2)
    i4 = basis(3, 4)
    i6 = basis(3, 6)
    i7 = basis(3, 7)
    assert _dist(cd_mul(i2, i4), i6) < 1e-15
    assert _dist(cd_mul(i1, i6), -i7) < 1e-15


def test_xor_index_rule_all_levels():
    # i_a * i_b always lands on +- i_(a XOR b)
    for level in range(MAX_LEVEL + 1):
        dim = 1 << level
        for a in range(dim):
            for b in range(dim):
                prod = cd_mul(basis(level, a), basis(level, b))
                sign, idx = _unit_sign(prod)
                assert idx == a ^ b
                assert abs(abs(prod.coeffs[idx]) - 1.0) < 1e-15
                assert np.sum(np.abs(prod.coeffs) > 1e-15) == 1
                assert sign in (1.0, -1.0)


def test_identity_element():
    rng = np.random.default_rng(11)
    for level in range(MAX_LEVEL + 1):
        x = _rand_element(level, rng)
        e = one(level)
        assert _dist(cd_mul(e, x), x) < 1e-12
        assert _dist(cd_mul(x, e), x) < 1e-12


def test_bilinearity():
    rng = np.random.default_rng(12)
    for level in (2, 3, 4):
        x = _rand_element(level, rng)
        y = _rand_element(level, rng)
        z = _rand_element(level, rng)
        left = cd_mul(x, y + 2.5 * z)
        right = cd_mul(x, y) + 2.5 * cd_mul(x, z)
        assert _dist(left, right) < 1e-12


def test_conjugation_involution_and_fixed_real_part():
    rng = np.random.default_rng(13)
    for level in range(MAX_LEVEL + 1):
        x = _rand_element(level, rng)
        assert _dist(cd_conj(cd_conj(x)), x) == 0.0
        c = cd_conj(x).coeffs
        assert c[0] == x.coeffs[0]
        assert np.array_equal(c[1:], -x.coeffs[1:])


def test_conjugation_anti_automorphism():
    rng = np.random.default_rng(14)
    for level in range(MAX_LEVEL + 1):
        for _ in range(50):
            x = _rand_element(level, rng)
            y = _rand_element(level, rng)
            lhs = cd_conj(cd_mul(x, y))
            rhs = cd_mul(cd_conj(y), cd_conj(x))
            assert _dist(lhs, rhs) < 1e-12


def test_norm_square_via_conjugate():
    rng = np.random.default_rng(15)
    for level in range(MAX_LEVEL + 1):
        x = _rand_element(level, rng)
        prod = cd_mul(x, cd_conj(x))
        assert abs(prod.coeffs[0] - cd_norm_sq(x)) < 1e-12
        if level > 0:
            assert np.max(np.abs(prod.coeffs[1:])) < 1e-12


def test_norm_multiplicative_through_octonions():
    # |x*y| == |x|*|y| holds exactly (up to roundoff) for levels 0..3
    rng = np.random.default_rng(16)
    for level in range(4):
        for _ in range(200):
            x = _rand_element(level, rng)
            y = _rand_element(level, rng)
            lhs = cd_norm_sq(cd_mul(x, y))
            rhs = cd_norm_sq(x) * cd_norm_sq(y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_norm_fails_multiplicative_at_level_4():
    # the classic two-term witness: product of nonzero elements is zero
    x = basis(4, 3) + basis(4, 10)
    y = basis(4, 6) - basis(4, 15)
    prod = cd_mul(x, y)
    assert prod.is_zero()
    assert cd_norm_sq(x) == 2.0 and cd_norm_sq(y) == 2.0
    # and the mirrored pair amplifies instead of cancelling
    y2 = basis(4, 6) + basis(4, 15)
    amp = cd_norm_sq(cd_mul(x, y2)) / (cd_norm_sq(x) * cd_norm_sq(y2))
    assert abs(amp - 2.0) < 1e-12


def test_associativity_through_quaternions():
    rng = np.random.default_rng(17)
    for level in (0, 1, 2):
        for _ in range(100):
            x = _rand_element(level, rng)
            y = _rand_element(level, rng)
            z = _rand_element(level, rng)
            lhs = cd_mul(cd_mul(x, y), z)
            rhs = cd_mul(x, cd_mul(y, z))
            assert _dist(lhs, rhs) < 1e-12


def test_associativity_fails_at_level_3():
    i1 = basis(3, 1)
    i2 = basis(3, 2)
    i4 = basis(3, 4)
    i7 = basis(3, 7)
    lhs = cd_mul(cd_mul(i1, i2), i4)
    rhs = cd_mul(i1, cd_mul(i2, i4))
    assert _dist(lhs, i7) < 1e-15
    assert _dist(rhs, -i7) < 1e-15


def test_alternativity_at_level_3():
    # x(xy) == (xx)y and (yx)x == y(xx) for octonions
    rng = np.random.default_rng(18)
    for _ in range(100):
        x = _rand_element(3, rng)
        y = _rand_element(3, rng)
        assert _dist(cd_mul(x, cd_mul(x, y)), cd_mul(cd_mul(x, x), y)) < 1e-12
        assert _dist(cd_mul(cd_mul(y, x), x), cd_mul(y, cd_mul(x, x))) < 1e-12


def test_alternativity_fails_at_level_4():
    x = basis(4, 3) + basis(4, 10)
    y = basis(4, 6) - basis(4, 15)
    # x*(x*y) = x*0 = 0, but (x*x)*y = -2*y != 0
    lhs = cd_mul(x, cd_mul(x, y))
    rhs = cd_mul(cd_mul(x, x), y)
    assert lhs.is_zero()
    assert _dist(rhs, -2.0 * y) < 1e-12
    assert not rhs.is_zero()


def test_inverse_examples():
    i2 = basis(2, 2)
    assert _dist(cd_inverse(i2), -i2) < 1e-15

    x = one(1) + basis(1, 1)
    expected = CDElement(1, np.array([0.5, -0.5]))
    assert _dist(cd_inverse(x), expected) < 1e-15


def test_inverse_random_all_levels():
    rng = np.random.default_rng(19)
    for level in range(MAX_LEVEL + 1):
        for _ in range(25):
            x = _rand_element(level, rng)
            inv = cd_inverse(x)
            assert _dist(cd_mul(x, inv), one(level)) < 1e-10
            assert _dist(cd_mul(inv, x), one(level)) < 1e-10


def test_inverse_of_zero_divisor_exists():
    # left multiplication by x is not injective at level 4, yet x has the
    # usual conjugate-over-norm inverse
    x = basis(4, 3) + basis(4, 10)
    inv = cd_inverse(x)
    expected = -0.5 * (basis(4, 3) + basis(4, 10))
    assert _dist(inv, expected) < 1e-15
    assert _dist(cd_mul(x, inv), one(4)) < 1e-15
    y = basis(4, 6) - basis(4, 15)
    assert cd_mul(x, y).is_zero()
    assert not y.is_zero()


def test_inverse_rejects_zero():
    with pytest.raises(SingularElementError):
        cd_inverse(zero(3))
    with pytest.raises(SingularElementError):
        cd_inverse(CDElement(2, np.array([1e-15, 0.0, 0.0, 0.0])))


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_inverse_of_elements_whose_norm_overflows(level):
    # The squared norm of 1e200 overflows; cd_inverse once returned the zero
    # element for it, so that x * x^-1 was 0, not 1.
    m = 1 << level
    rng = np.random.default_rng(level)
    for top in (1e155, 1e200, 1e300, np.finfo(float).max):
        for coeffs in (np.eye(m)[0] * top, np.full(m, -top), rng.uniform(-1, 1, m) * top):
            x = CDElement(level, coeffs)
            inv = cd_inverse(x)
            assert inv.coeffs.any()
            # x * x^-1 itself overflows no intermediate: its terms are about 1.
            assert _dist(cd_mul(x, inv), one(level)) < 1e-14
    assert cd_inverse(CDElement(level, np.eye(m)[0] * 1e200)).coeffs[0] == 1 / 1e200


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_overflow_raises_floating_point_error(level):
    # Each once leaked numpy's RuntimeWarning and went on with inf.
    m = 1 << level
    big = CDElement(level, np.full(m, 1e308))
    ops = [
        lambda: cd_norm_sq(big),
        lambda: cd_mul(big, big),
        lambda: big + big,
        lambda: big - (-big),
        lambda: big * 2.0,
        lambda: 2.0 * big,
    ]
    for op in ops:
        with pytest.raises(FloatingPointError):
            op()
    assert cd_norm_sq(CDElement(level, np.full(m, 2.0**500))) == m * 2.0**1000


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_inverse_raises_exactly_on_is_zero(level):
    # Largest coefficients on both sides of ZERO_TOL, alone or repeated on
    # every unit: all of those just below have a squared norm of 1e-24 or
    # more, which a test on the norm would have inverted.
    m = 1 << level
    for top in (np.nextafter(ZERO_TOL, 0), ZERO_TOL, np.nextafter(ZERO_TOL, 1)):
        for coeffs in (np.eye(m)[-1] * top, np.full(m, top), np.full(m, -top)):
            x = CDElement(level, coeffs)
            try:
                inv = cd_inverse(x)
            except SingularElementError:
                assert x.is_zero()
            else:
                assert not x.is_zero()
                assert _dist(cd_mul(x, inv), one(level)) < 1e-10
        assert CDElement(level, np.full(m, top)).is_zero() == (top < ZERO_TOL)


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_sign_rows_match_recursive_rule(level):
    # Every pair of basis units under the doubling rule verbatim:
    # i_a * i_b has the single coefficient S[a][b] at a XOR b.
    m = 1 << level
    eye = np.eye(m)
    for a in range(m):
        for b in range(m):
            prod = _mul_recursive(eye[a], eye[b])
            assert prod[a ^ b] == _sign_rows(level)[a][b]
            assert np.count_nonzero(prod) == 1


def test_zero_divisor_census():
    for level in range(4):
        assert find_basis_zero_divisors(level) == ()
    pairs = find_basis_zero_divisors(4)
    assert len(pairs) == 336
    assert ((3, 1, 10), (6, -1, 15)) in pairs
    # every listed pair really multiplies to zero, and no term index is 0
    for (a, s1, b), (c, s2, d) in pairs:
        x = basis(4, a) + float(s1) * basis(4, b)
        y = basis(4, c) + float(s2) * basis(4, d)
        assert cd_mul(x, y).is_zero()
        assert 0 < a < b < 16 and 0 < c < 16 and 0 < d < 16 and c != d


def test_zero_divisor_census_matches_brute_force():
    # The sign-table census against every product of two-term elements
    # under the float kernel, pairs in the same order.
    for level in range(1, MAX_LEVEL + 1):
        m = 1 << level
        keys = [(a, s, b) for a in range(m) for b in range(a + 1, m) for s in (1, -1)]
        elements = np.zeros((len(keys), m))
        for row, (a, s, b) in enumerate(keys):
            elements[row, a] = 1.0
            elements[row, b] = float(s)
        found = []
        for row, x in enumerate(elements):
            prod = _mul(x[None, :], elements)
            zero_rows = np.nonzero(np.max(np.abs(prod), axis=-1) < 1e-12)[0]
            found += [(keys[row], keys[j]) for j in zero_rows]
        assert find_basis_zero_divisors(level) == tuple(found)


def test_basis_product_table_level_2():
    rows = basis_product_table(2)
    assert len(rows) == 16
    table = {(a, b): (sign, idx) for a, b, sign, idx in rows}
    # full quaternion table
    assert table[(1, 2)] == (1, 3)
    assert table[(2, 1)] == (-1, 3)
    assert table[(2, 3)] == (1, 1)
    assert table[(3, 2)] == (-1, 1)
    assert table[(3, 1)] == (1, 2)
    assert table[(1, 3)] == (-1, 2)
    for k in range(4):
        assert table[(0, k)] == (1, k)
        assert table[(k, 0)] == (1, k)
    for k in range(1, 4):
        assert table[(k, k)] == (-1, 0)


def test_basis_product_table_matches_multiplication():
    for level in range(MAX_LEVEL + 1):
        rows = basis_product_table(level)
        assert len(rows) == (1 << level) ** 2
        for a, b, sign, idx in rows:
            assert idx == a ^ b
            prod = cd_mul(basis(level, a), basis(level, b))
            assert abs(prod.coeffs[idx] - sign) < 1e-15


@pytest.mark.parametrize("level", [-1, 5, True, 1.0, None, "2"])
@pytest.mark.parametrize("table", [basis_product_table, find_basis_zero_divisors])
def test_tables_check_the_level_first(table, level):
    # -1 once recursed without end or shifted by a negative count, 5 built
    # a table, and True and 1.0 passed as level 1, from the cache too.
    table(1)
    with pytest.raises(ValueError, match=r"level must be an integer in 0\.\.4"):
        table(level)


def test_shipped_table_matches_computed():
    # the sign convention ships as a data file; it must agree with the code
    text = (
        importlib.resources.files("hopfq")
        .joinpath("data/basis_products_level4.csv")
        .read_text()
    )
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0] == "a,b,sign,index"
    shipped = []
    for ln in lines[1:]:
        a, b, sign, idx = ln.split(",")
        assert sign in ("+", "-")
        shipped.append((int(a), int(b), 1 if sign == "+" else -1, int(idx)))
    assert shipped == list(basis_product_table(4))
    assert len(shipped) == 256


def test_complex_pair_round_trip():
    rng = np.random.default_rng(20)
    for level in range(1, MAX_LEVEL + 1):
        vals = rng.standard_normal(1 << (level - 1)) + 1j * rng.standard_normal(
            1 << (level - 1)
        )
        x = from_complex_pairs(level, vals)
        back = complex_pairs(x)
        assert np.array_equal(back, vals)
        # slot k occupies coefficients (2k, 2k+1)
        assert x.coeffs[0] == vals[0].real and x.coeffs[1] == vals[0].imag


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_complex_pairs_invert_from_complex_pairs_bit_for_bit(level):
    # Signed zeros in every real and imaginary slot: re + 1j * im turns a
    # real part of -0.0 into +0.0, so the layout must be a plain view.
    parts = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310])
    rng = np.random.default_rng(level)
    for _ in range(20):
        vals = np.empty(1 << (level - 1), np.complex128)
        vals.real, vals.imag = rng.choice(parts, (2, len(vals)))
        x = from_complex_pairs(level, vals)
        assert x.coeffs.tobytes() == vals.view(np.float64).tobytes()
        assert complex_pairs(x).tobytes() == vals.tobytes()
    assert complex_pairs(from_complex_pairs(2, [complex(-0.0, 1.0), 0j]))[0].real.hex() == "-0x0.0p+0"


def test_complex_pairs_needs_a_level_of_at_least_one():
    with pytest.raises(ValueError, match=r"level must be an integer in 1\.\.4"):
        complex_pairs(one(0))


def test_element_validation():
    with pytest.raises(ValueError):
        CDElement(5, np.zeros(32))
    with pytest.raises(ValueError):
        CDElement(-1, np.zeros(1))
    with pytest.raises(ValueError):
        CDElement(2, np.zeros(3))
    with pytest.raises(ValueError):
        CDElement(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        CDElement(1, np.array([np.inf, 0.0]))
    for k in (-1, 4):
        with pytest.raises(ValueError):
            basis(2, k)
    # Levels and indices are ints: numpy read basis(2, True) as a mask over
    # every coefficient, and a bool level built a complex element.
    for level in (True, False, 1.0, 2.5, "2", None):
        with pytest.raises(ValueError):
            CDElement(level, np.zeros(2))
        with pytest.raises(ValueError):
            basis(level, 0)
    for k in (True, False, 1.0, np.float64(2.0)):
        with pytest.raises(ValueError):
            basis(2, k)
    with pytest.raises(ValueError):
        zero(True)
    assert basis(np.int64(2), np.int8(3)).coeffs.tolist() == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        from_complex_pairs(2, [1, 2, 3])
    # Puns and complex values are no coefficients: numpy read [True, 0] and
    # [1, "2"] as numbers, and cast 1+2j to 1 with a ComplexWarning.
    for coeffs in ([True, 0], [1, "2"], np.array([b"1", b"0"]), np.array([True, False]),
                   np.array([1 + 2j, 0])):
        with pytest.raises(ValueError):
            CDElement(1, coeffs)
    for values in ([True], ["1"]):
        with pytest.raises(ValueError):
            from_complex_pairs(1, values)
    # The level is checked before it sizes an array: zero(1.0) once raised a
    # TypeError from 1 << 1.0, and from_complex_pairs(0, []) a negative shift.
    for level in (1.0, 2.5, -1, 5, "2", None):
        with pytest.raises(ValueError, match=r"level must be an integer in 0\.\.4"):
            zero(level)
    for level in (0, True, False, 1.0, 2.0, -1, 5, None):
        with pytest.raises(ValueError, match=r"level must be an integer in 1\.\.4"):
            from_complex_pairs(level, [])
    assert from_complex_pairs(np.int64(1), [2j]).coeffs.tolist() == [0, 2]
    # Operands other than elements and real scalars are TypeErrors, and a
    # bool is no scalar; numpy integers scale as Python ints do.
    x = one(2) + basis(2, 1)
    for other in ("x", None, 2 + 0j, True, np.True_):
        for op in (lambda: x * other, lambda: other * x, lambda: x + other,
                   lambda: x - other):
            with pytest.raises(TypeError):
                op()
    for scalar in (np.int64(3), 3, 3.0):
        assert (x * scalar).coeffs.tolist() == (scalar * x).coeffs.tolist() == [3, 3, 0, 0]
    assert (x * x).coeffs.tolist() == cd_mul(x, x).coeffs.tolist()
    assert repr(x) == "CDElement(quaternion: 1 + 1*i1)"
    assert repr(zero(1)) == "CDElement(complex: 0)"


def test_level_mismatch_rejected():
    with pytest.raises(ValueError):
        cd_mul(one(2), one(3))
    with pytest.raises(ValueError):
        one(2) + one(3)


def test_element_immutable():
    x = one(2)
    with pytest.raises(AttributeError):
        x.level = 3
    with pytest.raises((ValueError, RuntimeError)):
        x.coeffs[0] = 99.0
    # arithmetic returns new objects
    y = x + x
    assert x.coeffs[0] == 1.0 and y.coeffs[0] == 2.0


def test_is_zero_tolerance():
    tiny = CDElement(3, np.full(8, 1e-13))
    assert tiny.is_zero()
    small = CDElement(3, np.full(8, 1e-11))
    assert not small.is_zero()


def test_package_exports_algebra_names():
    for name in ("CDElement", "cd_mul", "cd_conj", "cd_inverse", "basis"):
        assert hasattr(hopfq, name)


@st.composite
def _element_batches(draw):
    level = draw(st.integers(0, MAX_LEVEL))
    shape = (draw(st.integers(1, 40)), 1 << level)
    coeffs = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return level, draw(arrays(np.float64, shape, elements=coeffs)), draw(
        arrays(np.float64, shape, elements=coeffs)
    )


@settings(max_examples=300, deadline=None)
@given(_element_batches())
def test_kernel_matches_recursive_rule_and_rows_are_batch_free(batch):
    level, x, y = batch
    prod = _mul(x, y)
    # Both sum the same 2**level exact-sign terms per coefficient, in
    # different orders: each is within (2**level) ulps of the term magnitudes.
    tol = 2 * x.shape[-1] * np.finfo(float).eps * (
        np.sum(np.abs(x), axis=-1) * np.max(np.abs(y), axis=-1)
    )
    assert np.all(np.abs(prod - _mul_recursive(x, y)) <= tol[:, None])
    for row in range(len(x)):
        alone = cd_mul(CDElement(level, x[row]), CDElement(level, y[row])).coeffs
        assert alone.tobytes() == prod[row].tobytes()
        assert _mul(x[row:row + 1], y[row:row + 1])[0].tobytes() == prod[row].tobytes()


def _mul_signs_first(x, y):
    # The kernel with the signs applied first, on three fresh temporaries.
    gather, signs = _xor_terms(x.shape[-1].bit_length() - 1)
    return (signs * x[..., :, None] * y[..., gather]).sum(axis=-2)


def _mixed_floats(rng, shape):
    # Signed zeros, subnormals and magnitudes across the float range; no
    # product or sum of 16 terms overflows.
    special = rng.choice([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0], shape)
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    return np.where(rng.random(shape) < 0.3, special, wide)


@pytest.mark.parametrize("rows", [1, 3, 256])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_kernel_rows_alone_and_in_a_batch_are_bit_identical(level, rows):
    rng = np.random.default_rng(100 * level + rows)
    x, y = (_mixed_floats(rng, (rows, 1 << level)) for _ in range(2))
    prod = _mul(x, y)
    # A sign is +-1, so (s*x)*y and (x*y)*s round alike, -0.0 included.
    assert prod.tobytes() == _mul_signs_first(x, y).tobytes()
    # Every supported broadcast form: one row of x, 1-D or (1, m), against
    # the N rows of y, and any row alone, 1-D or (1, m).
    one_x = _mul(x[0], y)
    assert one_x.tobytes() == _mul(x[:1], y).tobytes()
    assert one_x.tobytes() == _mul_signs_first(x[:1], y).tobytes()
    for row in range(rows):
        assert _mul(x[row], y[row]).tobytes() == prod[row].tobytes()
        assert _mul(x[row:row + 1], y[row:row + 1])[0].tobytes() == prod[row].tobytes()
        assert _mul(x[0], y[row]).tobytes() == one_x[row].tobytes()


def _python_norm_sq(values):
    # A plain loop: re**2 in index order, then im**2 (zeros for floats).
    re_sq = im_sq = 0.0
    for z in np.asarray(values, np.complex128).tolist():
        re_sq += z.real * z.real
        im_sq += z.imag * z.imag
    return re_sq + im_sq


def test_norm_sq_is_a_plain_loop_bit_for_bit():
    rng = np.random.default_rng(300)
    for length in range(1, 17):
        for _ in range(40):
            real = _mixed_floats(rng, length)
            cplx = _mixed_floats(rng, (length, 2)).view(np.complex128)[:, 0]
            for values in (real, cplx):
                parts = values.real.tolist(), values.imag.tolist()
                assert _norm_sq(*parts).hex() == _python_norm_sq(values).hex()
            if length & (length - 1) == 0:
                x = CDElement(length.bit_length() - 1, real)
                assert cd_norm_sq(x).hex() == _python_norm_sq(real).hex()


def test_norm_sq_of_one_large_coefficient_raises():
    # 1e200 squared is past the float range, though its element is finite.
    with pytest.raises(FloatingPointError):
        cd_norm_sq(CDElement(2, [1e200, 0, 0, 0]))


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_kernel_products_of_fractions_are_exact(level):
    rng = np.random.default_rng(level)
    m = 1 << level
    x, y = (
        np.array([Fraction(int(p), int(q)) for p, q in rng.integers(1, 50, (m, 2))], dtype=object)
        * rng.choice([-1, 1], m)
        for _ in range(2)
    )
    batch = np.stack([x, y, x * 3])
    for a, b in ((x, y), (x, batch), (batch, batch[::-1].copy())):
        prod = _mul(a, b)
        assert prod.dtype == object
        assert all(type(c) is Fraction for c in prod.ravel())
        assert (prod == _mul_recursive(a, b)).all()


def test_kernel_rejects_unsupported_operands():
    x = np.arange(48.0).reshape(3, 16)
    # The product is written into a buffer gathered from y: an x with more
    # rows than y, or of another dtype, raises instead of being cast.
    with pytest.raises(ValueError):
        _mul(x, x[:1])
    with pytest.raises(ValueError):
        _mul(x, x[0])
    # An x of another width once reshaped to (16, 1, 1) and gave wrong numbers.
    for y in (x[0], x[:1]):
        with pytest.raises(ValueError):
            _mul(np.ones((2, 8)), y)
    fractions = np.array([Fraction(k) for k in range(16)], dtype=object)
    for a, b in ((x[0], fractions), (fractions, x[0]), (x, x.astype(np.float32)),
                 (x.astype(np.float32), x)):
        with pytest.raises(TypeError, match="share a dtype"):
            _mul(a, b)
