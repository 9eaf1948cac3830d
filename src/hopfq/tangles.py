"""Density-matrix entanglement oracles, independent of the geometric map.

Everything here goes through reduced density matrices or polynomial
invariants of the amplitude tensor, so it cross-validates the fibration
coordinates rather than reusing them.
"""

import numpy as np

from .cdnum import _slot_sums
from .states import _FRONT, ShapeError, bring_to_front

SEP_TOL = 1e-9

_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _front_rows(state, qubit):
    """The amplitudes as a 2 x 2**(n-1) matrix: row b holds those with the
    chosen qubit at b, the other qubits in their order."""
    return bring_to_front(state, qubit).amps.reshape(2, -1)


def partial_trace_to_single(state, keep):
    """Reduced 2x2 density matrix of one qubit, tracing out the rest."""
    aa, bb, re, im = (float(v[0]) for v in _rho_first(_front_rows(state, keep).reshape(1, -1)))
    return np.array([[aa, complex(re, -im)], [complex(re, im), bb]])


def concurrence(state):
    """Two-qubit concurrence 2|a00*a11 - a01*a10|."""
    if state.n != 2:
        raise ShapeError("concurrence is defined for 2 qubits")
    a = state.amps
    return 2.0 * float(abs(a[0] * a[3] - a[1] * a[2]))


def hyperdeterminant_222(state):
    """Hyperdeterminant of the 2x2x2 amplitude tensor (complex scalar).

    Computed as the determinant of the symmetric bilinear form
    c_kn = eps^il eps^jm a_ijk a_lmn (with eps^01 = 1 = -eps^10), times 1/2.
    Equal in magnitude to the classical quartic polynomial; see three_tangle.
    """
    if state.n != 3:
        raise ShapeError("the hyperdeterminant is defined for 3 qubits")
    a = state.amps.reshape(2, 2, 2)
    c = np.einsum("il,jm,ijk,lmn->kn", _EPS, _EPS, a, a)
    return complex(0.5 * np.einsum("il,jm,ij,lm->", _EPS, _EPS, c, c))


def three_tangle(state):
    """Genuine three-way tangle: 4 |hyperdeterminant|."""
    return 4.0 * abs(hyperdeterminant_222(state))


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
    a, b = m[:, 0], m[:, 1]
    minors = a[:, :, None] * b[:, None, :] - b[:, :, None] * a[:, None, :]
    return np.abs(minors).max(axis=(1, 2)) < SEP_TOL


def separable_one_rest(state, qubit):
    """True when the chosen qubit factors out: every 2x2 minor vanishes."""
    return bool(_separable_rows(_front_rows(state, qubit)[None])[0])


def classify_three(state):
    """Coarse 3-qubit class: 'fully-separable', 'bi-separable', or 'entangled'.

    Tries each qubit as the split-off factor; when one splits, the remaining
    two-qubit factor decides between bi- and fully separable.
    """
    if state.n != 3:
        raise ShapeError("classification is defined for 3 qubits")
    fronts = state.amps[_FRONT[3]]
    return _classify_three(fronts, _separable_rows(fronts.reshape(3, 2, -1)).tolist())


def _classify_three(fronts, separable):
    # classify_three given the (3, 8) front rows and their separable list.
    if not any(separable):
        return "entangled"
    # Both rows of the split-off qubit are multiples of the two-qubit rest.
    if _separable_rows(fronts[separable.index(True)].reshape(2, 2, 2)).all():
        return "fully-separable"
    return "bi-separable"
