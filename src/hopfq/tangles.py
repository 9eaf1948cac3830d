"""Density-matrix entanglement oracles, independent of the geometric map.

Everything here goes through reduced density matrices or polynomial
invariants of the amplitude tensor, so it cross-validates the fibration
coordinates rather than reusing them.  The one-qubit reductions and the
separability minors are numpy batches; the spin-flip Gram behind the
concurrence and the three-qubit tangles is taken in Python floats.
"""

import numpy as np

from .cdnum import _slot_sums
from .states import _FRONT, ShapeError, bring_to_front

SEP_TOL = 1e-9


def _front_rows(state, qubit):
    """The amplitudes as a 2 x 2**(n-1) matrix: row b holds those with the
    chosen qubit at b, the other qubits in their order."""
    return bring_to_front(state, qubit).amps.reshape(2, -1)


def partial_trace_to_single(state, keep):
    """Reduced 2x2 density matrix of one qubit, tracing out the rest."""
    aa, bb, re, im = (float(v[0]) for v in _rho_first(_front_rows(state, keep).reshape(1, -1)))
    return np.array([[aa, complex(re, -im)], [complex(re, im), bb]])


def _spin_flip_gram(rows):
    """The spin-flip Gram matrix of each row of (N, 2**n) amplitudes, n >= 2.

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
    for v in np.ascontiguousarray(rows).view(np.float64).reshape(len(rows), -1, 8).tolist():
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
    return abs(complex(*_spin_flip_gram(state.amps[None])[0][0][0]))


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
    return _det(_spin_flip_gram(state.amps[_FRONT[3][2]][None])[0])


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
    return _three_qubit_tangles(_spin_flip_gram(state.amps[_FRONT[3]]))[1]


def two_tangles(state):
    """The one-vs-rest tangle of each qubit, (tau_A, tau_B, tau_C), for 3 qubits."""
    if state.n != 3:
        raise ShapeError("two_tangles is defined for 3 qubits")
    return tuple(_tau_first(state.amps[_FRONT[3]]).tolist())


def _rho_first(amps):
    """rho of the first qubit of each row of (N, 2**n) amplitudes, as four
    (N,) arrays (|a|^2, |b|^2, Re<a, b>, Im<a, b>), a and b the row's halves."""
    rows, half = len(amps), amps.shape[-1] // 2
    parts = np.ascontiguousarray(amps).view(np.float64).reshape(rows, 2, half, 2)
    # c[j, :, n] = (Re a_j, Im a_j, Re b_j, Im b_j) of row n; g sums c c^T
    # over the slot axis j.
    c = parts.transpose(2, 1, 3, 0).reshape(half, 4, rows)
    g = _slot_sums(c[:, :, None] * c[:, None])
    return g[0, 0] + g[1, 1], g[2, 2] + g[3, 3], g[0, 2] + g[1, 3], g[0, 3] - g[1, 2]


def _tau_first(amps):
    """4*det(rho) of the first qubit of each row: 4(|a|^2 |b|^2 - |<a, b>|^2)."""
    aa, bb, ab_re, ab_im = _rho_first(amps)
    return 4.0 * (aa * bb - (ab_re * ab_re + ab_im * ab_im))


def tau_one_rest(state, qubit):
    """One-vs-rest tangle 4*det(rho_qubit); equals the linear entropy measure."""
    return float(_tau_first(_front_rows(state, qubit).reshape(1, -1))[0])


def _separable_rows(m):
    """separable_one_rest of each (2, h) front-row matrix of an (N, 2, h) stack."""
    # Entry (i, j) of p is a_i b_j, so b_i a_j = a_j b_i is entry (j, i).
    p = m[:, 0, :, None] * m[:, 1, None, :]
    minors = p - p.swapaxes(1, 2)
    return np.abs(minors).max(axis=(1, 2)) < SEP_TOL


def separable_one_rest(state, qubit):
    """True when the chosen qubit factors out: every 2x2 minor vanishes."""
    return bool(_separable_rows(_front_rows(state, qubit)[None])[0])


def classify_three(state):
    """Coarse 3-qubit class of the separable list: 'entangled' when no qubit
    factors out, 'fully-separable' when all three do, else 'bi-separable'."""
    if state.n != 3:
        raise ShapeError("classification is defined for 3 qubits")
    return _classify_three(_separable_rows(state.amps[_FRONT[3]].reshape(3, 2, -1)).tolist())


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
    # Row q of fronts is the state with qubit q brought to the front.
    fronts = state.amps[_FRONT[n]]
    fields = {"tau_one_rest": _tau_first(fronts).tolist()}
    if n == 2:
        fields["concurrence"] = abs(complex(*_spin_flip_gram(fronts[:1])[0][0][0]))
    if n == 3:
        # One spin-flip Gram per front row gives every tangle below.
        fields["three_tangle"], pairs = _three_qubit_tangles(_spin_flip_gram(fronts))
        # two_tangles(state) is the one-vs-rest tau of each qubit: reuse it.
        fields["two_tangles"] = list(fields["tau_one_rest"])
        fields["pair_tangles"] = list(pairs)
    fields["separable"] = _separable_rows(fronts.reshape(n, 2, -1)).tolist()
    if n == 3:
        fields["classification"] = _classify_three(fields["separable"])
    return fields
