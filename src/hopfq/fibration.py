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
"""

import numpy as np

from .cdnum import (
    CDElement,
    _conj_coeffs,
    _mul,
    _sign_table,
    cd_conj,
    cd_mul,
    cd_norm_sq,
    from_complex_pairs,
)
from .states import _encode_pairs

E_SNAP_WINDOW = 1e-9
_MES_TOL = 1e-9


class BaseCoordinates:
    """Base-point data: delta, comps, and the E aggregates, as floats (comps
    an array) for one state or as arrays with one row per state for many."""

    __slots__ = ("n", "delta", "comps", "e_complement", "e_sum", "norm_defect")

    def __init__(self, n, delta, comps, e_complement, e_sum, norm_defect):
        self.n = n
        self.delta = delta
        self.comps = comps
        self.e_complement = e_complement
        self.e_sum = e_sum
        self.norm_defect = norm_defect


def _base_coordinates(amps):
    """Base-point data of (N, 2**n) amplitudes: BaseCoordinates of arrays.

    delta, e_complement, e_sum and norm_defect have shape (N,), comps
    (N, 2**n).  Every row is bit for bit the row of that state alone.
    u2 = 0 needs no special casing: P vanishes and delta = +1, the north pole.
    """
    u1, u2 = _encode_pairs(amps)
    p = _mul(u2, _conj_coeffs(u1))
    comps = 2.0 * p
    tail = comps.copy()
    tail[:, :2] = 0.0
    # Squares laid out as (N, 2**n, 4) and summed over the coefficient axis,
    # not the last one, so each row's sums do not depend on N (see cdnum._mul).
    terms = np.stack([u1, u2, p, tail], axis=-1)
    n1, n2, p_sq, e_sum = (terms * terms).sum(axis=-2).T
    delta = n1 - n2
    e_complement = 1.0 - delta * delta - comps[:, 0] ** 2 - comps[:, 1] ** 2
    norm_defect = 4.0 * (n1 * n2 - p_sq)
    return BaseCoordinates(
        amps.shape[-1].bit_length() - 1, delta, comps, e_complement, e_sum, norm_defect
    )


def base_coordinates(state):
    """Project a state to its base-sphere coordinates (pure quadratic forms)."""
    bc = _base_coordinates(state.amps[None])
    return BaseCoordinates(
        state.n,
        float(bc.delta[0]),
        bc.comps[0],
        float(bc.e_complement[0]),
        float(bc.e_sum[0]),
        float(bc.norm_defect[0]),
    )


def _snap_unit(v, window=E_SNAP_WINDOW):
    # Strip boundary noise only; genuinely out-of-range values pass through
    # (the sum form can exceed 1 for sedenions, and hiding that would defeat
    # the defect audit).
    if -window < v < 0.0:
        return 0.0
    if 1.0 < v < 1.0 + window:
        return 1.0
    return v


def _e_values(bc):
    # (e_complement, e_sum, defect) of one state's base coordinates.
    return (
        float(_snap_unit(bc.e_complement)),
        float(_snap_unit(bc.e_sum)),
        float(bc.norm_defect),
    )


def e_measure(state):
    """Both E expressions plus the norm defect: (e_complement, e_sum, defect)."""
    if state.n < 2:
        raise ValueError("entanglement measure needs at least 2 qubits")
    return _e_values(base_coordinates(state))


def _quotient_blocks_2(amps):
    a = amps
    num0 = np.conjugate(a[0]) * a[2] + np.conjugate(a[1]) * a[3]
    num1 = a[0] * a[3] - a[1] * a[2]
    return (num0, num1), float(abs(a[2]) ** 2 + abs(a[3]) ** 2)


def _quotient_blocks_3(amps):
    a = amps
    c = np.conjugate
    k1 = a[0] * c(a[4]) + a[1] * c(a[5]) + c(a[6]) * a[2] + c(a[7]) * a[3]
    k2 = a[1] * a[4] - a[0] * a[5] + c(a[6] * a[3] - a[7] * a[2])
    k3 = a[2] * a[4] - a[6] * a[0] + c(a[7] * a[1] - a[3] * a[5])
    k4 = a[6] * a[1] - a[2] * a[5] + c(a[7] * a[0] - a[3] * a[4])
    den = float(sum(abs(a[j]) ** 2 for j in (4, 5, 6, 7)))
    return (k1, k2, k3, k4), den


def _quotient_blocks_4(amps):
    q = [from_complex_pairs(2, amps[2 * m : 2 * m + 2]) for m in range(8)]
    q1, q2, q3, q4, q5, q6, q7, q8 = q
    cj = cd_conj
    b1 = cd_mul(q1, cj(q5)) + cd_mul(cj(q6), q2) + cd_mul(cj(q7), q3) + cd_mul(q4, cj(q8))
    b2 = cd_mul(q2, q5) - cd_mul(q6, q1) + cj(cd_mul(q4, q7) - cd_mul(q8, q3))
    b3 = cd_mul(q3, q5) - cd_mul(q7, q1) + cj(cd_mul(q3, q8) - cd_mul(q6, q4))
    b4 = cd_mul(q2, q7) - cd_mul(q6, q3) + cj(cd_mul(q8, q1) - cd_mul(q4, q5))
    den = float(sum(cd_norm_sq(x) for x in (q5, q6, q7, q8)))
    return (b1, b2, b3, b4), den


def hopf_quotient(state):
    """The explicit closed-form quotient pieces (numerator element, denominator).

    The numerator is assembled literally from the published block constants:
    n=2 packs the two complex blocks into a quaternion; n=3 multiplies four
    complex blocks onto the units 1, i2, i4, i6; n=4 multiplies four
    quaternion blocks onto 1, i4, i8, i12.  The denominator is the squared
    norm of the second pair element (the squared form keeps it consistent
    with the quadratic base coordinates).  A zero denominator marks the point
    at infinity and is returned as-is, never raised.
    """
    n = state.n
    a = state.amps
    if n == 2:
        (num0, num1), den = _quotient_blocks_2(a)
        return from_complex_pairs(2, [num0, num1]), den
    if n == 3:
        blocks, den = _quotient_blocks_3(a)
        coeffs = [[z.real, z.imag] for z in blocks]
        return _on_units(3, coeffs, (0, 2, 4, 6)), den
    if n == 4:
        blocks, den = _quotient_blocks_4(a)
        return _on_units(4, [b.coeffs for b in blocks], (0, 4, 8, 12)), den
    raise ValueError("quotient is defined for 2..4 qubits")


def _on_units(level, blocks, units):
    """The element sum_k x_k * i_units[k], where block k holds the leading
    coefficients of x_k.

    Right multiplication by a basis unit i_b is a signed permutation:
    i_a * i_b = S[a, b] * i_(a XOR b), so coefficient a of x_k lands at
    a XOR b with the sign in column b of the sign table.  The units given
    keep the blocks' slots apart.
    """
    signs = _sign_table(level)
    out = np.zeros(1 << level)
    for block, b in zip(blocks, units):
        a = np.arange(len(block))
        out[a ^ b] = signs[a, b] * np.asarray(block, dtype=np.float64)
    return CDElement(level, out)


def _ball(bc):
    # The solid-ball point (comps[0], comps[1], delta) of one 4-qubit state.
    return float(bc.comps[0]), float(bc.comps[1]), float(bc.delta)


def _at_origin(ball, tol=_MES_TOL):
    return all(abs(c) < tol for c in ball)


def ball_coordinates(state):
    """The 4-qubit solid-ball point (comps[0], comps[1], delta)."""
    if state.n != 4:
        raise ValueError("ball coordinates are defined for 4 qubits")
    return _ball(base_coordinates(state))


def is_mes(state, tol=_MES_TOL):
    """Maximal-entanglement test: the ball point sits at the origin."""
    return _at_origin(ball_coordinates(state), tol)
