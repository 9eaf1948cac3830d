"""Geometric entanglement analysis of 1-4 qubit pure states.

The package builds Cayley-Dickson algebras (complex, quaternion, octonion,
sedenion) from one fixed doubling convention, encodes pure states as pairs of
algebra elements, projects them to fibration base coordinates, and derives
entanglement measures that are cross-checked against independent
density-matrix computations.  A bra-ket expression parser and a CLI
(`hopfq analyze | verify-paper | sample | zero-divisors`) sit on top.
"""

from types import ModuleType as _ModuleType

from .cdnum import (
    CDElement,
    MAX_LEVEL,
    SingularElementError,
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
from .states import (
    MAX_QUBITS,
    DegenerateStateError,
    NormalizationError,
    PairEncoding,
    QubitState,
    ShapeError,
    StateError,
    basis_state,
    bell_state,
    bring_to_front,
    decode_pair,
    encode_pair,
    ghz_state,
    make_state,
    permute_qubits,
    product_state,
    random_state,
    read_state_file,
    state_from_json,
    state_to_json,
    w_state,
    write_state_file,
)
from .braket import ParseError, format_state, parse_amplitudes, parse_state
from .fibration import (
    BaseCoordinates,
    ball_coordinates,
    base_coordinates,
    e_measure,
    hopf_quotient,
    is_mes,
)
from .tangles import (
    classify_three,
    concurrence,
    hyperdeterminant_222,
    partial_trace_to_single,
    separable_one_rest,
    tau_one_rest,
    three_tangle,
    two_tangles,
)
from .reporting import (
    ConformanceRow,
    analysis_report,
    analyze_state,
    conformance_rows,
    sample_rows,
    sample_table,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules those imports bind as
# package attributes are not exports.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
