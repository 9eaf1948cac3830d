"""Base-map coordinates of the pair encoding and the entanglement measure E.

For an encoded state (u1, u2) the base point is read off the quadratic forms

    delta    = ||u1||^2 - ||u2||^2
    P        = u2 * conj(u1)
    comps[k] = 2 * (coefficient of i_k in P)      (comps[0] = 2 Re P)

For n <= 3 the vector (delta, comps) lies on the unit sphere: the algebras up
to octonions have multiplicative norms.  Two expressions for the entanglement
measure follow:

    e_complement = 1 - delta^2 - comps[0]^2 - comps[1]^2
    e_sum        = sum_{k >= 2} comps[k]^2

They agree identically for n <= 3 and can differ for n = 4, where sedenion
norms are not multiplicative; the gap is exactly the norm defect
4*(||u1||^2*||u2||^2 - ||P||^2), which base_coordinates records.
e_complement is the headline E in reports.

One kernel, _base_point, takes the coordinates of one state in Python floats
and, for sample tables, those of many states at once from numpy columns,
each one amplitude part of every state.  Its arithmetic is elementwise, every
sum added from 0.0 in slot order, so a state's values are bit for bit the
same either way.
"""

import functools

from .cdnum import CDElement, _conj_coeffs, _mul, _norm_sq, _raising, _sign_rows, np
from .states import ShapeError, _pair_parts

E_SNAP_WINDOW = 1e-9
_MES_TOL = 1e-9


class BaseCoordinates:
    """Base-point data: delta, comps, and the E aggregates of one state, as
    floats, comps an array (a list inside the library).  Inside the library,
    for N states at once, each float is an (N,) array, one entry per state."""

    __slots__ = ("n", "delta", "comps", "e_complement", "e_sum", "norm_defect")

    def __init__(self, n, delta, comps, e_complement, e_sum, norm_defect):
        self.n = n
        self.delta = delta
        self.comps = comps
        self.e_complement = e_complement
        self.e_sum = e_sum
        self.norm_defect = norm_defect


@functools.lru_cache(maxsize=None)
def _product_rows(level):
    # Row k holds, for a = 0, 1, ..., the index of S[a][a^k] * y[a^k] in y
    # followed by -y: the factors of x[a] in coefficient k of x * y.
    m = 1 << level
    signs = _sign_rows(level)
    return tuple(
        tuple((a ^ k) + (m if signs[a][a ^ k] < 0 else 0) for a in range(m)) for k in range(m)
    )


def _base_point(n, parts):
    """Base-point data, comps a list, of one n-qubit state's tuple of float
    parts, or of N states' 2**(n+1) (N,) float columns, each one part of
    every state.  Each coefficient of P sums its terms x[a] * S[a][a^k] * y[a^k]
    from 0.0 in slot order, as _mul does (a sign of +-1 commutes with
    rounding), and each squared norm as _norm_sq adds.  Every operation is
    elementwise, so a column holds the bits of its state alone.  A sum of no
    terms, e_sum at n = 1, is the float 0.0 for columns too."""
    u1, u2 = _pair_parts(parts)
    neg = [-x for x in u1]
    # conj(u1), then its negation.
    factors = [u1[0], *neg[1:], neg[0], *u1[1:]]
    p = []
    for row in _product_rows(n):
        total = 0.0
        for x, b in zip(u2, row):
            total += x * factors[b]
        p.append(total)
    comps = [2.0 * x for x in p]
    n1, n2 = _norm_sq(u1), _norm_sq(u2)
    delta = n1 - n2
    e_complement = 1.0 - delta * delta - comps[0] * comps[0] - comps[1] * comps[1]
    norm_defect = 4.0 * (n1 * n2 - _norm_sq(p))
    return BaseCoordinates(n, delta, comps, e_complement, _norm_sq(comps[2:]), norm_defect)


def base_coordinates(state):
    """Project a state to its base-sphere coordinates (pure quadratic forms)."""
    bc = _base_point(state.n, state._parts)
    bc.comps = np.array(bc.comps)
    return bc


def _snap_unit(v):
    # Strip boundary noise only; genuinely out-of-range values pass through
    # (the sum form can exceed 1 for sedenions, and hiding that would defeat
    # the defect audit).
    if -E_SNAP_WINDOW < v < 0.0:
        return 0.0
    if 1.0 < v < 1.0 + E_SNAP_WINDOW:
        return 1.0
    return v


def _e_values(bc):
    # (e_complement, e_sum, defect) of one state's base coordinates.
    return _snap_unit(bc.e_complement), _snap_unit(bc.e_sum), bc.norm_defect


def _report_fields(state):
    """The analysis report's base-map fields of one state, in report order:
    delta and comps, the E values for n >= 2, the ball point and mes at n = 4."""
    bc = _base_point(state.n, state._parts)
    fields = {"delta": bc.delta, "comps": bc.comps}
    if state.n >= 2:
        fields["e_complement"], fields["e_sum"], fields["norm_defect"] = _e_values(bc)
    if state.n == 4:
        ball = _ball(bc)
        fields["ball"] = list(ball)
        fields["mes"] = _at_origin(ball)
    return fields


def e_measure(state):
    """Both E expressions plus the norm defect: (e_complement, e_sum, defect)."""
    if state.n < 2:
        raise ShapeError("entanglement measure needs at least 2 qubits")
    return _e_values(_base_point(state.n, state._parts))


def _quotient_blocks_2(amps):
    a = amps.view(np.float64).reshape(4, 2)
    m, cj = _mul, _conj_coeffs
    with _raising():
        return [m(cj(a[0]), a[2]) + m(cj(a[1]), a[3]), m(a[0], a[3]) - m(a[1], a[2])]


def _quotient_blocks_3(amps):
    a = amps.view(np.float64).reshape(8, 2)
    m, cj = _mul, _conj_coeffs
    with _raising():
        k1 = m(a[0], cj(a[4])) + m(a[1], cj(a[5])) + m(cj(a[6]), a[2]) + m(cj(a[7]), a[3])
        k2 = m(a[1], a[4]) - m(a[0], a[5]) + cj(m(a[6], a[3]) - m(a[7], a[2]))
        k3 = m(a[2], a[4]) - m(a[6], a[0]) + cj(m(a[7], a[1]) - m(a[3], a[5]))
        k4 = m(a[6], a[1]) - m(a[2], a[5]) + cj(m(a[7], a[0]) - m(a[3], a[4]))
    return [k1, k2, k3, k4]


def _quotient_blocks_4(amps):
    # q_m is the quaternion of amplitudes (2m - 2, 2m - 1): row m - 1 of the
    # coefficients, so the blocks are the published products on those rows.
    q1, q2, q3, q4, q5, q6, q7, q8 = amps.view(np.float64).reshape(8, 4)
    m, cj = _mul, _conj_coeffs
    with _raising():
        b1 = m(q1, cj(q5)) + m(cj(q6), q2) + m(cj(q7), q3) + m(q4, cj(q8))
        b2 = m(q2, q5) - m(q6, q1) + cj(m(q4, q7) - m(q8, q3))
        b3 = m(q3, q5) - m(q7, q1) + cj(m(q3, q8) - m(q6, q4))
        b4 = m(q2, q7) - m(q6, q3) + cj(m(q8, q1) - m(q4, q5))
    return [b1, b2, b3, b4]


_QUOTIENT_BLOCKS = {2: _quotient_blocks_2, 3: _quotient_blocks_3, 4: _quotient_blocks_4}


def hopf_quotient(state):
    """The explicit closed-form quotient pieces (numerator element, denominator).

    The numerator is assembled literally from the published block constants:
    n=2 puts two complex blocks on the units 1, i2; n=3 four complex blocks
    on 1, i2, i4, i6; n=4 four quaternion blocks on 1, i4, i8, i12.  The
    denominator is the squared norm of the second half of the amplitudes, the
    second pair element (the squared form keeps it consistent with the
    quadratic base coordinates).  A zero denominator marks the point at
    infinity and is returned as-is, never raised.
    """
    n, a = state.n, state.amps
    if n not in _QUOTIENT_BLOCKS:
        raise ShapeError("quotient is defined for 2..4 qubits")
    second = state._parts[1 << n :]
    den = _norm_sq(second[0::2], second[1::2])
    # Block k holds the step coefficients of x_k, the factor of i_(k*step),
    # and x_k[j] * i_j * i_(k*step) = S[j][k*step] * x_k[j] * i_(k*step+j):
    # the sum reads its signs off the table.  Adding 0.0 makes a -0.0 +0.0.
    blocks = _QUOTIENT_BLOCKS[n](a)
    step = (1 << n) // len(blocks)
    rows = _sign_rows(n)
    signs = [rows[j][k * step] for k in range(len(blocks)) for j in range(step)]
    return CDElement(n, np.concatenate(blocks) * signs + 0.0), den


def _ball(bc):
    # The solid-ball point (comps[0], comps[1], delta) of one 4-qubit state.
    return bc.comps[0], bc.comps[1], bc.delta


def _at_origin(ball):
    return all(abs(c) < _MES_TOL for c in ball)


def ball_coordinates(state):
    """The 4-qubit solid-ball point (comps[0], comps[1], delta)."""
    if state.n != 4:
        raise ShapeError("ball coordinates are defined for 4 qubits")
    return _ball(_base_point(state.n, state._parts))


def is_mes(state):
    """Maximal-entanglement test: the ball point sits at the origin."""
    return _at_origin(ball_coordinates(state))
