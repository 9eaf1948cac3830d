"""Cayley-Dickson number tower: reals, complex, quaternions, octonions, sedenions.

Level L holds elements with 2**L real coefficients over the basis units
i_0 = 1, i_1, ..., i_(2**L - 1).  The doubling convention is fixed once and
used everywhere: writing an element as an ordered pair (a, b) of elements one
level down,

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

With this rule basis products satisfy i_a * i_b = +-i_(a XOR b), and the signs
follow from the recursion itself (i_1*i_2 = +i_3, i_1*i_4 = +i_5,
i_1*i_6 = -i_7, ...).  The full sign table is exported in CSV form for
auditing, see ``basis_product_table`` and ``data/basis_products_level4.csv``.
"""

import functools
import math
import numbers
import sys


class _Numpy:
    """numpy until its first read, which imports it and rebinds ``np`` to it.
    The modules that import ``np`` from here hold this proxy, which keeps each
    attribute it reads, so their later reads of it are plain lookups."""

    def __getattr__(self, attr):
        global np
        import numpy as np

        value = getattr(np, attr)
        setattr(self, attr, value)
        return value


np = _Numpy()

MAX_LEVEL = 4

LEVEL_NAMES = {0: "real", 1: "complex", 2: "quaternion", 3: "octonion", 4: "sedenion"}

ZERO_TOL = 1e-12


class SingularElementError(ArithmeticError):
    """Raised when inverting an element of zero norm."""


def _is_int(value):
    # numpy reads a bool index as a mask, and int() truncates a float.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_pun(values):
    # A bool, str or bytes value or array, or a list or tuple with such an
    # entry: numpy reads True, "1" and b"1" as 1, but none is a number.
    # No numpy bool or array exists before numpy is imported, so numpy's
    # types are read only from an import already made.
    numpy = sys.modules.get("numpy")
    puns, arrays = (bool, str, bytes), ()
    if numpy is not None:
        puns, arrays = (bool, numpy.bool_, str, bytes), numpy.ndarray
    if isinstance(values, arrays) and values.dtype.kind == "O":
        values = values.ravel().tolist()
    elif not isinstance(values, (list, tuple)):
        values = [values]
    return any(
        isinstance(x, puns) or (isinstance(x, arrays) and x.dtype.kind in "bSU")
        for x in values
    )


def _check_level(level, lowest=0):
    if not (_is_int(level) and lowest <= level <= MAX_LEVEL):
        raise ValueError(f"level must be an integer in {lowest}..{MAX_LEVEL}, got {level!r}")


def _pow2_scaled(parts):
    # Floats over the power of two of the largest of them, and its exponent:
    # exact, and no square of a part can overflow.
    exp = math.frexp(max(map(abs, parts)))[1]
    return [math.ldexp(x, -exp) for x in parts], exp


def _divided(parts, dr, di):
    """Complex values, given as flat (re, im) float pairs, each divided by
    dr + di*i as numpy's complex loops divide (Smith's rule, by a reciprocal),
    as the flat pairs of the quotients.  Each Python float operation rounds
    on its own.  The divisor is finite and nonzero; a denominator or a
    reciprocal past the float range raises FloatingPointError, as numpy's
    overflow check does."""
    if abs(dr) >= abs(di):
        rat = di / dr
        den = dr + di * rat
        out = [(xr + xi * rat, xi - xr * rat) for xr, xi in zip(parts[0::2], parts[1::2])]
    else:
        rat = dr / di
        den = di + dr * rat
        out = [(xr * rat + xi, xi * rat - xr) for xr, xi in zip(parts[0::2], parts[1::2])]
    scl = 1.0 / den
    if not (math.isfinite(den) and math.isfinite(scl)):
        raise FloatingPointError("overflow encountered in divide")
    return [x * scl for pair in out for x in pair]


def _raising():
    # A result past the float range raises FloatingPointError, not a warning.
    return np.errstate(over="raise", invalid="raise")


class CDElement:
    """An element of the level-``level`` Cayley-Dickson algebra.

    Coefficients are a read-only float64 array of length 2**level, coefficient
    k multiplying the basis unit i_k.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        _check_level(level)
        if _is_pun(coeffs):
            raise ValueError("coefficients must be numbers, not booleans, strings or bytes")
        arr = np.array(coeffs)
        if arr.dtype.kind == "c":  # a float cast would drop the imaginary parts
            raise ValueError("coefficients must be real, got complex values")
        arr = arr.astype(np.float64, copy=False)
        if arr.shape != (1 << level,):
            raise ValueError(
                f"level {level} needs {1 << level} coefficients, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CDElement is immutable")

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                unit = "" if k == 0 else f"*i{k}"
                terms.append(f"{c:g}{unit}")
        body = " + ".join(terms) if terms else "0"
        return f"CDElement({LEVEL_NAMES[self.level]}: {body})"

    def __add__(self, other):
        if not isinstance(other, CDElement):
            return NotImplemented
        _check_levels(self, other)
        with _raising():
            return CDElement(self.level, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, CDElement):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return CDElement(self.level, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CDElement):
            return cd_mul(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        # Real scalars, numpy's included, but not True or False.
        if not isinstance(other, numbers.Real) or isinstance(other, bool):
            return NotImplemented
        with _raising():
            return CDElement(self.level, self.coeffs * float(other))

    def is_zero(self):
        return bool(np.max(np.abs(self.coeffs)) < ZERO_TOL)


def zero(level):
    _check_level(level)
    return CDElement(level, np.zeros(1 << level))


def one(level):
    return basis(level, 0)


def basis(level, k):
    """The basis unit i_k at the given level."""
    _check_level(level)
    if not (_is_int(k) and 0 <= k < (1 << level)):
        raise ValueError(f"basis index must be an integer in 0..{(1 << level) - 1}, got {k!r}")
    c = np.zeros(1 << level)
    c[k] = 1.0
    return CDElement(level, c)


def from_complex_pairs(level, values):
    """Build an element whose coefficient pairs (2k, 2k+1) are complex values.

    ``values`` holds 2**(level-1) complex numbers; value k lands in
    coefficients (2k, 2k+1) = (real, imaginary).  This is the pair-of-pairs
    layout the doubling construction induces, so e.g. level 2 with values
    (c0, c1) is the quaternion c0 + c1*i_2.
    """
    _check_level(level, lowest=1)
    if _is_pun(values):
        raise ValueError("values must be numbers, not booleans, strings or bytes")
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (1 << (level - 1),):
        raise ValueError(f"level {level} needs {1 << (level - 1)} complex values")
    return CDElement(level, np.ascontiguousarray(v).view(np.float64))


def complex_pairs(x):
    """Inverse of from_complex_pairs: coefficients as 2**(level-1) complex values."""
    _check_level(x.level, lowest=1)
    return x.coeffs.view(np.complex128).copy()


def _check_levels(x, y):
    if x.level != y.level:
        raise ValueError(f"level mismatch: {x.level} vs {y.level}")


def _conj_coeffs(c):
    out = -c
    out[..., 0] = c[..., 0]
    return out


def _mul_recursive(a, b):
    # The doubling rule verbatim, along the last axis of broadcastable
    # arrays; authoritative definition of the product and the test oracle.
    n = a.shape[-1]
    if n == 1:
        return a * b
    h = n // 2
    a1, a2 = a[..., :h], a[..., h:]
    b1, b2 = b[..., :h], b[..., h:]
    lo = _mul_recursive(a1, b1) - _mul_recursive(_conj_coeffs(b2), a2)
    hi = _mul_recursive(b2, a1) + _mul_recursive(a2, _conj_coeffs(b1))
    return np.concatenate([lo, hi], axis=-1)


@functools.lru_cache(maxsize=None)
def _sign_rows(level):
    """Rows of +-1 ints S with i_a * i_b = S[a][b] * i_(a XOR b).

    The doubling rule on basis units, one level from the one below: with
    h = 2**(level-1), i_k = (i_k, 0) for k < h and (0, i_(k-h)) otherwise,
    and the quadrants of S follow from S' one level down:

        a < h,  b < h:   S'[a][b]
        a < h,  b >= h:  S'[b-h][a]
        a >= h, b < h:   c(b) * S'[a-h][b]
        a >= h, b >= h:  -c(b-h) * S'[b-h][a-h]

    where c(k) is the sign conj(i_k) carries: c(0) = 1, c(k) = -1 otherwise.
    """
    if level == 0:
        return ((1,),)
    below = _sign_rows(level - 1)
    h = len(below)
    conj = [1] + [-1] * (h - 1)
    top = [row + tuple(below[b][a] for b in range(h)) for a, row in enumerate(below)]
    bottom = [
        tuple(conj[b] * row[b] for b in range(h))
        + tuple(-conj[b] * below[b][a] for b in range(h))
        for a, row in enumerate(below)
    ]
    return tuple(top + bottom)


@functools.lru_cache(maxsize=None)
def _xor_terms(level):
    # Term (a, k) of product coefficient k is S[a, a^k] * x[a] * y[a^k].
    a, k = np.indices((1 << level, 1 << level))
    gather = a ^ k
    signs = np.array(_sign_rows(level), np.int8)[a, gather]
    gather.setflags(write=False)
    signs.setflags(write=False)
    return gather, signs


def _norm_sq(re, im=()):
    """Squared norm of complex values given as float sequences of their real
    and imaginary parts (none for real values): the squares of the real parts
    added from 0.0 in index order, then those of the imaginary parts, then
    the two sums added; one rounding per Python float operation.  The values
    may be floats or same-shape float arrays, each the values of its states:
    every operation is elementwise, so each state gets the bits it gets
    alone."""
    re_sq = im_sq = 0.0
    for x in re:
        re_sq += x * x
    for x in im:
        im_sq += x * x
    return re_sq + im_sq


def _mul(x, y):
    """Products of same-dtype coefficient arrays with 2**level columns.

    y is one element, (2**level,), or N of them, (N, 2**level), and the
    result has y's shape.  x has that shape too, or is one element,
    (2**level,) or (1, 2**level), against the N rows of y.  The terms are
    gathered from y into one buffer and multiplied in place, so an x with
    more rows than y, or of another dtype, raises instead of being cast; an
    x of another width raises before the gather.

    Every form runs one path: a 1-D y is one row, N = 1, and the terms,
    laid out as a new C-contiguous (a, k, N) buffer, sum over a.  With the
    slots outermost in memory numpy adds one (k, N) slice after another,
    from its identity 0.0, so each product sums in slot order whatever N
    is, and a row's bits are the same alone or in a batch.  That needs two
    or more values per slot, which every level from 1 up has: numpy may sum
    a (slots,) or (slots, 1) array pairwise.  The int8 signs
    take the operands' dtype: float arrays give float products, object
    arrays of Fractions exact ones.  A sign is +-1, so applying it last
    gives the bits of applying it first.
    """
    if x.dtype != y.dtype:
        raise TypeError(f"operands must share a dtype, got {x.dtype} and {y.dtype}")
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"operands must share a width, got {x.shape} and {y.shape}")
    gather, signs = _xor_terms(y.shape[-1].bit_length() - 1)
    m = len(gather)
    terms = y.T.take(gather, axis=0).reshape(m, m, -1)
    # x's coefficients as contiguous (a, 1, N) rows: unit-stride reads.
    terms *= np.ascontiguousarray(x.T).reshape(m, 1, -1)
    terms *= signs[..., None]
    return terms.sum(axis=0).T.reshape(y.shape)


def cd_mul(x, y):
    """Product of two same-level elements under the fixed doubling convention."""
    _check_levels(x, y)
    with _raising():
        return CDElement(x.level, _mul(x.coeffs, y.coeffs))


def cd_conj(x):
    """Conjugate: negate every coefficient except the real one."""
    return CDElement(x.level, _conj_coeffs(x.coeffs))


def cd_norm_sq(x):
    """Squared Euclidean norm, sum of squared coefficients."""
    # Every coefficient is finite, so only an overflow makes it infinite.
    total = _norm_sq(x.coeffs.tolist())
    if total == math.inf:
        raise FloatingPointError("overflow encountered in the squared norm")
    return total


def cd_inverse(x):
    """Multiplicative inverse conj(x)/||x||^2; raises when ``x.is_zero()``.

    At level 4 an inverse always exists for nonzero x even though zero
    divisors do: x * cd_inverse(x) = 1 while x * y = 0 for some other y.
    """
    if x.is_zero():
        raise SingularElementError("cannot invert an element of zero norm")
    y, exp = _pow2_scaled(x.coeffs.tolist())
    return CDElement(x.level, np.ldexp(_conj_coeffs(np.array(y)) / _norm_sq(y), -exp))


def basis_product_table(level):
    """All basis products as rows (a, b, sign, index) with i_a*i_b = sign*i_index."""
    _check_level(level)
    rows = _sign_rows(level)
    return [(a, b, s, a ^ b) for a, row in enumerate(rows) for b, s in enumerate(row)]


def find_basis_zero_divisors(level):
    """Every (i_a + s1*i_b)(i_c + s2*i_d) = 0 with a<b, c<d, read off the sign table.

    The product's four terms land on i_(a^c), i_(a^d), i_(b^c) and i_(b^d).
    They meet only when a^b = c^d, and then in two pairs, i_(a^c) with
    i_(b^d) and i_(a^d) with i_(b^c), so the product is exactly zero when
    both pairs cancel:

        S[a, c] + s1*s2*S[b, d] = 0   and   s2*S[a, d] + s1*S[b, c] = 0.

    Returns a tuple of ((a, s1, b), (c, s2, d)) entries, ordered by the first
    factor and then the second, each factor in (a, b, s = +1 before -1)
    order.  Empty for every level up to 3 (division algebras); level 4 is the
    first with zero divisors.
    """
    _check_level(level)
    m = 1 << level
    signs = _sign_rows(level)
    keys = [(a, s, b) for a in range(m) for b in range(a + 1, m) for s in (1, -1)]
    # Candidate second factors share the first's a^b; key order is kept.
    groups = {}
    for key in keys:
        groups.setdefault(key[0] ^ key[2], []).append(key)
    return tuple(
        ((a, s1, b), (c, s2, d))
        for a, s1, b in keys
        for c, s2, d in groups[a ^ b]
        if signs[a][c] + s1 * s2 * signs[b][d] == 0
        and s2 * signs[a][d] + s1 * signs[b][c] == 0
    )
