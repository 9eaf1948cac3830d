import types

import hopfq

# Every name the package exports: its public API and __version__, no submodule.
EXPORTS = """
    CDElement MAX_LEVEL SingularElementError basis basis_product_table cd_conj
    cd_inverse cd_mul cd_norm_sq complex_pairs find_basis_zero_divisors
    from_complex_pairs one zero
    MAX_QUBITS DegenerateStateError NormalizationError PairEncoding QubitState
    ShapeError StateError basis_state bell_state bring_to_front decode_pair
    encode_pair ghz_state make_state permute_qubits product_state random_state
    read_state_file state_from_json state_to_json w_state write_state_file
    ParseError format_state parse_amplitudes parse_state
    BaseCoordinates ball_coordinates base_coordinates e_measure hopf_quotient is_mes
    classify_three concurrence hyperdeterminant_222 partial_trace_to_single
    separable_one_rest tau_one_rest three_tangle two_tangles
    ConformanceRow analysis_report analyze_state conformance_rows sample_rows
    sample_table
    __version__
""".split()


def test_exports_are_pinned():
    assert len(EXPORTS) == 61
    assert hopfq.__all__ == EXPORTS
    assert not any(isinstance(getattr(hopfq, name), types.ModuleType) for name in hopfq.__all__)
    assert "cdnum" not in hopfq.__all__ and "states" not in hopfq.__all__
    namespace = {}
    exec("from hopfq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
