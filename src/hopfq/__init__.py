"""Geometric entanglement analysis of 1-4 qubit pure states.

The package builds Cayley-Dickson algebras (complex, quaternion, octonion,
sedenion) from one fixed doubling convention, encodes pure states as pairs of
algebra elements, projects them to fibration base coordinates, and derives
entanglement measures that are cross-checked against independent
density-matrix computations.  A bra-ket expression parser and a CLI
(`hopfq analyze | verify-paper | sample | zero-divisors`) sit on top.

Importing the package executes none of its submodules: each is registered
as a lazy module that runs on its first attribute read, and each export is
read off its ``_EXPORTS`` submodule at every access, so ``hopfq.cd_mul`` is
whatever ``hopfq.cdnum.cd_mul`` is then.  numpy is imported only by the
first call that makes or reads an array (a batch kernel, a ``CDElement``, a
state's ``amps``, ``parse_amplitudes``): one state's analysis runs in Python
floats, so ``hopfq zero-divisors``, ``hopfq analyze`` and
``hopfq verify-paper`` never import numpy.

The submodules stay lazy: where no bytecode is written
(``PYTHONDONTWRITEBYTECODE=1``), a fresh process compiles every module it
executes, and importing them all at ``import hopfq`` took
``hopfq zero-divisors`` from 54.8 to 69.7 ms (median of 21 runs).
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

_EXPORTS = {
    "cdnum": (
        "CDElement", "MAX_LEVEL", "SingularElementError", "basis", "basis_product_table",
        "cd_conj", "cd_inverse", "cd_mul", "cd_norm_sq", "complex_pairs",
        "find_basis_zero_divisors", "from_complex_pairs", "one", "zero",
    ),
    "states": (
        "MAX_QUBITS", "DegenerateStateError", "NormalizationError", "PairEncoding",
        "QubitState", "ShapeError", "StateError", "basis_state", "bell_state",
        "bring_to_front", "decode_pair", "encode_pair", "ghz_state", "make_state",
        "permute_qubits", "product_state", "random_state", "read_state_file",
        "state_from_json", "state_to_json", "w_state", "write_state_file",
    ),
    "braket": ("ParseError", "format_state", "parse_amplitudes", "parse_state"),
    "fibration": (
        "BaseCoordinates", "ball_coordinates", "base_coordinates", "e_measure",
        "hopf_quotient", "is_mes",
    ),
    "tangles": (
        "classify_three", "concurrence", "hyperdeterminant_222", "partial_trace_to_single",
        "pair_tangles", "separable_one_rest", "tau_one_rest", "three_tangle", "two_tangles",
    ),
    "reporting": (
        "ConformanceRow", "analysis_report", "analyze_state", "conformance_rows",
        "sample_rows", "sample_table",
    ),
}
_HOME = {name: sub for sub, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, "__version__"]


class _LazyModule(types.ModuleType):
    """A module whose code runs, under its ``loader_state`` lock, on its first read.

    Other threads wait for the code; its own reads go straight through.  Code
    that raises leaves the module unloaded, so the next read raises again.
    """

    def __getattribute__(self, attr):
        read = types.ModuleType.__getattribute__
        state = read(self, "__spec__").loader_state
        with state["lock"]:
            # Not `is _LazyModule`: modules registered before a reload keep the old class.
            if type(self) is not types.ModuleType and not state["running"]:
                state["running"] = True
                try:
                    read(self, "__loader__").exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    state["running"] = False
        return read(self, attr)


def _lazy(name):
    """The module ``name``, registered now and executed on its first attribute read.

    An ``import`` statement or ``importlib.import_module`` of it reads its
    ``__spec__`` and so executes it at once; only attribute reads through the
    returned object stay lazy.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader_state = {"lock": threading.RLock(), "running": False}
    module.__class__ = _LazyModule
    sys.modules[name] = module
    return module


# ``cli`` is not among them: ``python -m hopfq.cli`` warns when it is already
# registered.
cdnum, states, braket, fibration, tangles, reporting = (
    _lazy(f"{__name__}.{sub}") for sub in _EXPORTS
)


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
