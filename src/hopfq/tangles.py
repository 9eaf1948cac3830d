"""Density-matrix entanglement oracles, independent of the geometric map.

Everything here goes through reduced density matrices or polynomial
invariants of the amplitude tensor, so it cross-validates the fibration
coordinates rather than reusing them.  One state's reductions, separability
minors and spin-flip Gram are taken in Python floats, from its amplitudes
with each qubit brought to the front in turn.  Sample tables run the same
one-qubit tangle kernel on numpy columns, one per amplitude part, and get the
same bits for each state.
"""

from .cdnum import np
from .states import ShapeError, _front, bring_to_front

SEP_TOL = 1e-9


def _rho_front(front):
    """rho of the first qubit of one state's parts: (|a|^2, |b|^2, Re<a, b>,
    Im<a, b>), a and b its halves; each of its eight slot sums adds from 0.0
    in slot order.  The parts may be a tuple of floats or a list of (N,)
    float columns, each one part of N states: every operation is
    elementwise, so a column holds the bits of its state alone."""
    m = len(front) // 2
    g00 = g11 = g22 = g33 = g02 = g13 = g03 = g12 = 0.0
    for ar, ai, br, bi in zip(front[0:m:2], front[1:m:2], front[m::2], front[m + 1::2]):
        g00 += ar * ar
        g11 += ai * ai
        g22 += br * br
        g33 += bi * bi
        g02 += ar * br
        g13 += ai * bi
        g03 += ar * bi
        g12 += ai * br
    return g00 + g11, g22 + g33, g02 + g13, g03 - g12


def _tau_front(front):
    """4*det(rho), 4(|a|^2 |b|^2 - |<a, b>|^2), of the first qubit of one
    state's parts or of each state's in part columns, as _rho_front takes them."""
    aa, bb, ab_re, ab_im = _rho_front(front)
    return 4.0 * (aa * bb - (ab_re * ab_re + ab_im * ab_im))


def partial_trace_to_single(state, keep):
    """Reduced 2x2 density matrix of one qubit, tracing out the rest."""
    aa, bb, re, im = _rho_front(bring_to_front(state, keep)._parts)
    return np.array([[aa, complex(re, -im)], [complex(re, im), bb]])


def _spin_flip_gram(rows):
    """The spin-flip Gram matrix of each of some states, each given as its
    tuple of 2**(n+1) (re, im) parts, n >= 2.

    With v_k the 4-vector of the row's last two qubits when the others read
    k, G_kl = sum_a (-1)**popcount(a) v_k[a] v_l[a XOR 3], returned per row
    as m rows of m (re, im) float pairs, m = 2**(n-2).  Terms a and a XOR 3
    of G_kl are terms a XOR 3 and a of G_lk, so G = H + H^T with
    H_kl = v_k[0] v_l[3] - v_k[1] v_l[2].  G is exactly symmetric, and at
    n = 2 exactly 2(v[0] v[3] - v[1] v[2]).  Each Python float operation
    rounds on its own, so a row's bits depend on neither its batch nor the
    CPU.
    """
    grams = []
    for parts in rows:
        v = [parts[k:k + 8] for k in range(0, len(parts), 8)]
        h = [[((ar * dr + ai * -di) + (br * -cr + bi * ci),
               (ar * di + ai * dr) + (br * -ci + bi * -cr))
              for _, _, _, _, cr, ci, dr, di in v]
             for ar, ai, br, bi, *_ in v]
        grams.append([[(p[0] + q[0], p[1] + q[1]) for p, q in zip(row, column)]
                      for row, column in zip(h, zip(*h))])
    return grams


def _det(gram):
    """det [[a, b], [c, d]] of (re, im) float pairs, as a complex."""
    ((ar, ai), (br, bi)), ((cr, ci), (dr, di)) = gram
    return complex((ar * dr - br * cr) - (ai * di - bi * ci),
                   (ar * di - br * ci) + (ai * dr - bi * cr))


def _three_qubit_tangles(grams):
    """(three_tangle, (tau_AB, tau_AC, tau_BC)) from the 2 x 2 Grams of
    the three-qubit front rows A, B and C.

    Row C is pair (A, B) indexed by C, the hyperdeterminant's own layout, and
    gives the three-tangle 4|det G|.  Each pair tangle is
    sum |G_kl|**2 - 2|det G| of the row of the third qubit, the squares
    summed in index order, re**2 then im**2, as cdnum._norm_sq sums.
    """
    taus = []
    for gram in grams:
        ((ar, ai), (br, bi)), ((cr, ci), (dr, di)) = gram
        det = abs(_det(gram))
        re = ((ar * ar + br * br) + cr * cr) + dr * dr
        im = ((ai * ai + bi * bi) + ci * ci) + di * di
        taus.append(((re + im) - 2.0 * det, det))
    (bc, _), (ac, _), (ab, det_c) = taus
    return 4.0 * det_c, (ab, ac, bc)


def concurrence(state):
    """Two-qubit concurrence |G| = 2|a00*a11 - a01*a10|, G the 1 x 1
    spin-flip Gram."""
    if state.n != 2:
        raise ShapeError("concurrence is defined for 2 qubits")
    return abs(complex(*_spin_flip_gram([state._parts])[0][0][0]))


def hyperdeterminant_222(state):
    """Hyperdeterminant of the 2x2x2 amplitude tensor (complex scalar).

    det G of the spin-flip Gram of pair (A, B) indexed by C,
    G_kl = sum_ij (-1)**(i+j) a_ijk a_(1-i)(1-j)l.  G is the symmetric
    bilinear form c_kl = eps^ip eps^jq a_ijk a_pql (eps^01 = 1 = -eps^10),
    and det G is half of eps^ip eps^jq G_ij G_pq.  Equal in magnitude to
    the classical quartic polynomial; see three_tangle.
    """
    if state.n != 3:
        raise ShapeError("the hyperdeterminant is defined for 3 qubits")
    return _det(_spin_flip_gram([_front(state, 2)])[0])


def three_tangle(state):
    """Genuine three-way tangle: 4 |hyperdeterminant|."""
    return 4.0 * abs(hyperdeterminant_222(state))


def pair_tangles(state):
    """The two-tangles (tau_AB, tau_AC, tau_BC) of a 3-qubit state: the
    squared concurrence of each two-qubit reduced state (Coffman, Kundu and
    Wootters), so that tau_AB + tau_AC + three_tangle is qubit A's
    one-vs-rest tangle.

    Each is sum |G_kl|**2 - 2|det G|, the squared difference of the singular
    values of the pair's spin-flip Gram indexed by the third qubit.
    """
    if state.n != 3:
        raise ShapeError("pair_tangles is defined for 3 qubits")
    return _three_qubit_tangles(_spin_flip_gram([_front(state, q) for q in range(3)]))[1]


def two_tangles(state):
    """The one-vs-rest tangle of each qubit, (tau_A, tau_B, tau_C), for 3 qubits."""
    if state.n != 3:
        raise ShapeError("two_tangles is defined for 3 qubits")
    return tuple(_tau_front(_front(state, q)) for q in range(3))


def tau_one_rest(state, qubit):
    """One-vs-rest tangle 4*det(rho_qubit); equals the linear entropy measure."""
    return _tau_front(bring_to_front(state, qubit)._parts)


def _separable_front(front):
    """True when the first qubit of one state's parts factors out: every 2x2
    minor a_i b_j - a_j b_i of its halves a and b is below SEP_TOL in
    magnitude.  Each product is formed as numpy's complex multiply forms
    it, one rounding per Python float operation, so the verdict follows no
    CPU; the first minor at or past the tolerance decides it."""
    m = len(front) // 2
    re_a, im_a, re_b, im_b = front[0:m:2], front[1:m:2], front[m::2], front[m + 1::2]
    for i, (ar, ai, br, bi) in enumerate(zip(re_a, im_a, re_b, im_b)):
        for cr, ci, dr, di in zip(re_a[i + 1:], im_a[i + 1:], re_b[i + 1:], im_b[i + 1:]):
            # (a_i b_j) - (a_j b_i), a_j = c and b_j = d.
            minor = complex((ar * dr - ai * di) - (cr * br - ci * bi),
                            (ar * di + ai * dr) - (cr * bi + ci * br))
            if not abs(minor) < SEP_TOL:
                return False
    return True


def separable_one_rest(state, qubit):
    """True when the chosen qubit factors out: every 2x2 minor vanishes."""
    return _separable_front(bring_to_front(state, qubit)._parts)


def classify_three(state):
    """Coarse 3-qubit class of the separable list: 'entangled' when no qubit
    factors out, 'fully-separable' when all three do, else 'bi-separable'."""
    if state.n != 3:
        raise ShapeError("classification is defined for 3 qubits")
    return _classify_three([_separable_front(_front(state, q)) for q in range(3)])


def _classify_three(separable):
    if not any(separable):
        return "entangled"
    return "fully-separable" if all(separable) else "bi-separable"


def _report_fields(state):
    """The analysis report's tangle fields of one state, in report order;
    none for one qubit."""
    n = state.n
    if n == 1:
        return {}
    # Entry q of fronts is the state's parts with qubit q brought to the front.
    fronts = [_front(state, q) for q in range(n)]
    fields = {"tau_one_rest": [_tau_front(front) for front in fronts]}
    if n == 2:
        fields["concurrence"] = abs(complex(*_spin_flip_gram(fronts[:1])[0][0][0]))
    if n == 3:
        # One spin-flip Gram per front row gives every tangle below.
        fields["three_tangle"], pairs = _three_qubit_tangles(_spin_flip_gram(fronts))
        # two_tangles(state) is the one-vs-rest tau of each qubit: reuse it.
        fields["two_tangles"] = list(fields["tau_one_rest"])
        fields["pair_tangles"] = list(pairs)
    fields["separable"] = [_separable_front(front) for front in fronts]
    if n == 3:
        fields["classification"] = _classify_three(fields["separable"])
    return fields
