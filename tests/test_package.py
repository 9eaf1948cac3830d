import ast
import pathlib
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
    pair_tangles separable_one_rest tau_one_rest three_tangle two_tangles
    ConformanceRow analysis_report analyze_state conformance_rows sample_rows
    sample_table
    __version__
""".split()


def test_exports_are_pinned():
    assert len(EXPORTS) == 62
    assert hopfq.__all__ == EXPORTS
    assert not any(isinstance(getattr(hopfq, name), types.ModuleType) for name in hopfq.__all__)
    assert "cdnum" not in hopfq.__all__ and "states" not in hopfq.__all__
    namespace = {}
    exec("from hopfq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


# Calls that would sum floats outside cdnum._slot_sums, in an order numpy or
# a BLAS chooses.
_SUMMING_NAMES = {
    "einsum", "dot", "matmul", "tensordot", "inner", "vdot", "linalg", "prod", "mean",
    "nansum", "cumsum", "average", "trace",
}

# The modules that sum floats in Python.  The builtin sum starts from the
# int 0, so 0 + -0.0 drops a zero's sign, and from Python 3.12 it compensates
# float sums; math.fsum rounds once.  Either breaks the slot order.
_FLOAT_MODULES = {"cdnum.py", "states.py", "fibration.py", "tangles.py"}


def test_every_float_sum_goes_through_slot_sums():
    # README's "Pinned bytes": every per-state sum adds in slot order through
    # cdnum._slot_sums, and hopfq calls no np.linalg.  So no source file
    # names an einsum, a product or a reduction, uses @, or calls .sum
    # anywhere but in _slot_sums; and no float module calls sum() or fsum.
    found = []
    for path in sorted(pathlib.Path(hopfq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node): fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if name in _SUMMING_NAMES:
                found.append((where, name))
            if name == "sum" and isinstance(node, ast.Attribute) and not (
                    path.name == "cdnum.py" and inside.get(id(node)) == "_slot_sums"):
                found.append((where, ".sum"))
            if isinstance(getattr(node, "op", None), ast.MatMult):
                found.append((where, "@"))
            called = getattr(node, "func", None)
            if path.name in _FLOAT_MODULES and (
                    isinstance(called, ast.Name) and called.id in {"sum", "fsum"}
                    or isinstance(called, ast.Attribute) and called.attr == "fsum"):
                found.append((where, "sum()"))
    assert found == []


# What the report may take from the modules that compute it: each module's
# own report fields, and the batch kernels sample_rows runs.  No kernel
# layout, front-row gather or class rule leaks into reporting.py.
_REPORTING_IMPORTS = {
    "fibration": {"_base_coordinates", "_report_fields"},
    "tangles": {"_report_fields", "_tau_first"},
}
_KERNEL_NAMES = {
    "_FRONT", "_front", "_spin_flip_gram", "_separable_front", "_tau_front", "_three_qubit_tangles",
    "_classify_three", "_base_point", "_e_values", "_ball", "_at_origin", "base_coordinates",
}


def test_reporting_reads_only_report_fields_and_sample_kernels():
    path = pathlib.Path(hopfq.__file__).parent / "reporting.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, named = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            for alias in node.names:
                if module is None:  # import x or from . import x
                    imported.setdefault(alias.name.rpartition(".")[2], set()).add("*")
                else:
                    imported.setdefault(module, set()).add(alias.name)
        named.add(getattr(node, "id", None) or getattr(node, "attr", None))
    assert {module: imported.get(module) for module in _REPORTING_IMPORTS} == _REPORTING_IMPORTS
    assert named & _KERNEL_NAMES == set()
