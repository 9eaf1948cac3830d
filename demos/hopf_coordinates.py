"""Walk a few named states through the pair encoding and the fibration base
map: the unit base sphere for 1-3 qubits, the closed-form quotient, and the
point at infinity for separable leading qubits.

Run:  python3 demos/hopf_coordinates.py
"""

import numpy as np

from hopfq import (
    base_coordinates,
    basis_state,
    bell_state,
    encode_pair,
    ghz_state,
    decode_pair,
    hopf_quotient,
    make_state,
    parse_state,
    random_state,
    w_state,
)

# Maxima of rounding noise print as a verdict against this bound, not as
# digits, whose last bits follow numpy's SIMD loops.
BOUND = 1e-12


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def show(label, state):
    bc = base_coordinates(state)
    nz = {k: round(float(c), 6) for k, c in enumerate(bc.comps) if abs(c) > 1e-9}
    r2 = bc.delta**2 + float(np.sum(bc.comps**2))
    print(f"  {label:<22} delta={bc.delta:+.4f}  nonzero comps={nz or '{}'}")
    print(f"  {'':<22} e_complement={bc.e_complement:.6f}"
          f"  e_sum={bc.e_sum:.6f}  |base point|^2={r2:.12f}")


banner("Base coordinates of named states")
show("|01>", basis_state(2, "01"))
show("Bell", bell_state())
show("GHZ (3 qubits)", ghz_state(3))
show("W (3 qubits)", w_state(3))
show("GHZ (4 qubits)", ghz_state(4))

banner("The base point is a unit vector for 1-3 qubits")
for n in (1, 2, 3):
    worst = 0.0
    for k in range(300):
        bc = base_coordinates(random_state(n, seed=11 * n, index=k))
        worst = max(worst, abs(bc.delta**2 + float(np.sum(bc.comps**2)) - 1.0))
    print(f"  n={n}: max | |point|^2 - 1 | over 300 Haar states < {BOUND:g}: {worst < BOUND}")
print("  (at n=4 the sphere stretches: see demos/ball_map.py)")

banner("Closed-form quotient (numerator element, denominator)")
for label, state in (
    ("Bell", bell_state()),
    ("GHZ (3 qubits)", ghz_state(3)),
    ("(|0>+|1>)/sqrt2 x Bell", make_state(3, np.array([1, 0, 0, 1, 1, 0, 0, 1]) / 2)),
):
    num, den = hopf_quotient(state)
    nz = {k: round(float(c), 6) for k, c in enumerate(num.coeffs) if abs(c) > 1e-9}
    print(f"  {label:<24} numerator={nz}  denominator={den:.6f}")
print("  the third state lands in the pure complex line: the leading qubit")
print("  factors out, so the quotient carries one qubit's worth of data")

banner("Separable leading qubit -> point at infinity")
s = parse_state("(|000> + |011>)/sqrt(2)")
num, den = hopf_quotient(s)
print(f"  |0> x Bell: denominator = {den}  (projection sends it to the pole)")
bc = base_coordinates(s)
print(f"  base map handles it without special cases: delta = {bc.delta}, "
      f"e_complement = {bc.e_complement:.1f}")

banner("Pair encoding is exactly invertible")
s = random_state(4, seed=123)
enc = encode_pair(s)
print(f"  4-qubit Haar state -> (u1, u2) at level {enc.u1.level}")
back = decode_pair(enc)
print(f"  decode(encode(state)) max amplitude error = "
      f"{np.max(np.abs(back.amps - s.amps)):.1e}")
