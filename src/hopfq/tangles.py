"""Density-matrix entanglement oracles, independent of the geometric map.

Everything here goes through reduced density matrices or polynomial
invariants of the amplitude tensor, so it cross-validates the fibration
coordinates rather than reusing them.
"""

import numpy as np

SEP_TOL = 1e-9

_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _front_rows(state, qubit):
    """The amplitudes as a 2 x 2**(n-1) matrix: row b holds those with the
    chosen qubit at b, the other qubits in their order."""
    if not 0 <= qubit < state.n:
        raise ValueError(f"qubit index {qubit} out of range for n={state.n}")
    return np.moveaxis(state.amps.reshape((2,) * state.n), qubit, 0).reshape(2, -1)


def partial_trace_to_single(state, keep):
    """Reduced 2x2 density matrix of one qubit, tracing out the rest."""
    m = _front_rows(state, keep)
    return m @ m.conj().T


def concurrence(state):
    """Two-qubit concurrence 2|a00*a11 - a01*a10|."""
    if state.n != 2:
        raise ValueError("concurrence is defined for 2 qubits")
    a = state.amps
    return 2.0 * float(abs(a[0] * a[3] - a[1] * a[2]))


def hyperdeterminant_222(state):
    """Hyperdeterminant of the 2x2x2 amplitude tensor (complex scalar).

    Computed as the determinant of the symmetric bilinear form
    c_kn = eps^il eps^jm a_ijk a_lmn (with eps^01 = 1 = -eps^10), times 1/2.
    Equal in magnitude to the classical quartic polynomial; see three_tangle.
    """
    if state.n != 3:
        raise ValueError("the hyperdeterminant is defined for 3 qubits")
    a = state.amps.reshape(2, 2, 2)
    c = np.einsum("il,jm,ijk,lmn->kn", _EPS, _EPS, a, a)
    return complex(0.5 * np.einsum("il,jm,ij,lm->", _EPS, _EPS, c, c))


def three_tangle(state):
    """Genuine three-way tangle: 4 |hyperdeterminant|."""
    return 4.0 * abs(hyperdeterminant_222(state))


def two_tangles(state):
    """Pairwise one-vs-rest tangles (tau_A, tau_B, tau_C) for 3 qubits."""
    if state.n != 3:
        raise ValueError("two_tangles is defined for 3 qubits")
    return tuple(tau_one_rest(state, q) for q in range(3))


def _tau_first(amps):
    """4*det(rho) of the first qubit of each row of (N, 2**n) amplitudes.

    With a, b the halves of a row, det(rho) = |a|^2 |b|^2 - |<a, b>|^2.
    """
    rows, half = len(amps), amps.shape[-1] // 2
    parts = np.ascontiguousarray(amps).view(np.float64).reshape(rows, 2, half, 2)
    # c[:, j] = (Re a_j, Im a_j, Re b_j, Im b_j); the sums of c c^T over the
    # slot axis j, not the last axis, do not depend on N (see cdnum._mul).
    c = parts.transpose(0, 2, 1, 3).reshape(rows, half, 4)
    g = (c[:, :, :, None] * c[:, :, None, :]).sum(axis=1)
    aa = g[:, 0, 0] + g[:, 1, 1]
    bb = g[:, 2, 2] + g[:, 3, 3]
    ab_re = g[:, 0, 2] + g[:, 1, 3]
    ab_im = g[:, 0, 3] - g[:, 1, 2]
    return 4.0 * (aa * bb - (ab_re * ab_re + ab_im * ab_im))


def tau_one_rest(state, qubit):
    """One-vs-rest tangle 4*det(rho_qubit); equals the linear entropy measure."""
    return float(_tau_first(_front_rows(state, qubit).reshape(1, -1))[0])


def separable_one_rest(state, qubit, tol=SEP_TOL):
    """True when the chosen qubit factors out: every 2x2 minor vanishes."""
    m = _front_rows(state, qubit)
    minors = np.outer(m[0], m[1]) - np.outer(m[1], m[0])
    return bool(np.max(np.abs(minors)) < tol)


def classify_three(state, tol=SEP_TOL):
    """Coarse 3-qubit class: 'fully-separable', 'bi-separable', or 'entangled'.

    Tries each qubit as the split-off factor; when one splits, the remaining
    two-qubit factor decides between bi- and fully separable.
    """
    if state.n != 3:
        raise ValueError("classification is defined for 3 qubits")
    return _classify_three(state, [separable_one_rest(state, q, tol) for q in range(3)], tol)


def _classify_three(state, separable, tol=SEP_TOL):
    # classify_three given separable_one_rest(state, q, tol) for each qubit q.
    if not any(separable):
        return "entangled"
    m = _front_rows(state, separable.index(True))
    rest = m[0] if np.linalg.norm(m[0]) >= np.linalg.norm(m[1]) else m[1]
    if abs(rest[0] * rest[3] - rest[1] * rest[2]) < tol:
        return "fully-separable"
    return "bi-separable"
