"""Report assembly: per-state analysis reports, the published-value
conformance table, and random-sample tables.

Everything here is a pure projection of the algebra/fibration/tangle modules
into ordered dictionaries and rows; serialization helpers keep float output
lossless (repr round-trips doubles exactly).
"""

import functools
import io
import itertools
import json
import math
import re

from .braket import _parse_parts
from .cdnum import _divided, np
from .fibration import _base_point, _report_fields as _base_fields
from .states import (QubitState, _check_natural, _check_qubit_count, _make_state,
                     _random_amplitudes, bring_to_front)
from .tangles import _report_fields as _tangle_fields, _tau_front

MATCH_TOL = 1e-3


def analysis_report(state):
    """Full per-state report as an ordered dict of plain Python values.

    The amplitude list is [[re, im], ...]; coordinate fields are the raw
    base-map values while e_complement / e_sum carry the boundary-snapped
    measure values.  fibration and tangles each write their own fields.
    """
    parts = state._parts
    return {
        "n": state.n,
        "amplitudes": [list(pair) for pair in zip(parts[0::2], parts[1::2])],
        **_base_fields(state),
        **_tangle_fields(state),
    }


def _flatten(report):
    """The report's shape and its scalar values in order.  The shape is one
    (key, layout) pair per field, the layout being None for a scalar, the
    length of a list of scalars, or the lengths of a list of lists."""
    # Tuples are built from lists: tuple() of a map resizes its result, and
    # each call would leave a tuple on CPython's free lists (2000 per size).
    shape, values = [], []
    for key, value in report.items():
        if not isinstance(value, list):
            layout, value = None, [value]
        elif value and isinstance(value[0], list):
            layout, value = tuple(list(map(len, value))), itertools.chain.from_iterable(value)
        else:
            layout = len(value)
        shape.append((key, layout))
        values.extend(value)
    return tuple(shape), values


def _csv_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The writers fill one %s template per report shape; the four qubit counts
# give four shapes, so a few entries hold every real report.
@functools.lru_cache(maxsize=16)
def _json_template(shape):
    # json.dumps lays the shape out with null in each value's place.  A null
    # that ends a line is a value: no key's text holds a line break.
    nulls = {key: None if layout is None else [None] * layout if isinstance(layout, int)
             else [[None] * size for size in layout] for key, layout in shape}
    return re.sub(r"null(?=,?\n)", "%s", json.dumps(nulls, indent=2).replace("%", "%%") + "\n")


@functools.lru_cache(maxsize=16)
def _csv_template(shape):
    names = []
    for key, layout in shape:
        if layout is None:
            names.append(key)
        elif isinstance(layout, int):
            names += [f"{key}_{k}" for k in range(layout)]
        elif key == "amplitudes":
            names += [f"amp_{k}_{part}" for k in range(len(layout)) for part in ("re", "im")]
        else:
            names += [f"{key}_{k}_{j}" for k, size in enumerate(layout) for j in range(size)]
    return "field,value\n" + "".join(name.replace("%", "%%") + ",%s\n" for name in names)


# json.dumps's own spelling of every value, one per line: with ensure_ascii
# no value's text holds a line break.
_JSON_VALUES = json.JSONEncoder(separators=("\n", ":"))


def report_to_json(report):
    """The report as json.dumps(report, indent=2) + newline writes it, for
    reports whose values are scalars, lists of scalars and lists of lists."""
    shape, values = _flatten(report)
    return _json_template(shape) % tuple(_JSON_VALUES.encode(values)[1:-1].splitlines())


def report_to_csv(report):
    """One field,value line per scalar; amplitude k is amp_k_re, amp_k_im."""
    shape, values = _flatten(report)
    return _csv_template(shape) % tuple(list(map(_csv_scalar, values)))


class ConformanceRow:
    """One published-value check: label, published value, computed values,
    an independent density-matrix oracle, and the match verdict."""

    __slots__ = (
        "label",
        "paper_value",
        "computed_e_complement",
        "computed_e_sum",
        "oracle_tau",
        "match",
        "note",
    )

    def __init__(self, label, paper_value, e_complement, e_sum, oracle_tau, note):
        self.label = label
        self.paper_value = float(paper_value)
        self.computed_e_complement = float(e_complement)
        self.computed_e_sum = float(e_sum)
        self.oracle_tau = float(oracle_tau)
        self.match = bool(abs(self.computed_e_complement - self.paper_value) < MATCH_TOL)
        self.note = note

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


PUBLISHED_STATES = (
    ("GHZ (4 qubits)", "(|0000>+|1111>)/sqrt(2)"),
    ("W0 (4 qubits)", "1/2*(|1000>+|0100>+|0010>+|0001>)"),
    ("W1 (4 qubits)", "1/2*(|0111>+|1011>+|1101>+|1110>)"),
    ("Phi1 (4 qubits)", "1/sqrt(6)*(sqrt(2)|1111>+|1000>+|0100>+|0010>+|0001>)"),
    (
        "Phi2 (4 qubits)",
        "3|0000>+3|1111>-|0011>-|1100>+3|0101>+3|1010>-|0110>-|1001>",
    ),
    ("Bell (2 qubits)", "(|00>+|11>)/sqrt(2)"),
    ("GHZ (3 qubits)", "(|000>+|111>)/sqrt(2)"),
    ("W (3 qubits)", "1/sqrt(3)*(|001>+|010>+|100>)"),
    ("|0>xBell (3 qubits)", "(|000>+|011>)/sqrt(2)"),
)


# One (label, published value, note) per conformance row, in table order.
# Notes are str.format templates filled from the row state's analysis report.
_CLAIMS = (
    ("GHZ (4 qubits)", 1.0,
     "matches the published 1; ball point at the origin (maximally entangled)"),
    ("W0 (4 qubits)", 0.5,
     "published 1/2; both computed forms and the density-matrix oracle give 3/4"),
    ("W1 (4 qubits)", 0.75,
     "matches the published 3/4; ball point (0, 0, -1/2)"),
    ("Phi1 (4 qubits)", 8.0 / 9.0,
     "published 8/9; both computed forms and the density-matrix oracle give 1 "
     "(leading qubit maximally mixed)"),
    ("Phi2 (4 qubits, as printed)", 0.6625,
     "printed prefactor leaves squared norm 2*sqrt(10) ~= 6.3246, so the "
     "quadratic forms are far off scale; values shown for the vector as printed"),
    ("Phi2 (4 qubits, normalized)", 0.6625,
     "published 0.6625; the normalized state is maximally entangled across "
     "the leading cut (computed 1, ball origin)"),
    ("Bell (2 qubits)", 1.0,
     "equals concurrence squared (oracle column holds concurrence^2 here)"),
    ("GHZ (3 qubits)", 1.0,
     "one-vs-rest {tau_one_rest[0]:.6g} = pair tangles {pair_tangles[0]:.3g} + "
     "{pair_tangles[1]:.3g} + three-tangle {three_tangle:.6g}; classified {classification}"),
    ("W (3 qubits)", 8.0 / 9.0,
     "one-vs-rest {tau_one_rest[0]:.6g} = pair tangles {pair_tangles[0]:.6g} + "
     "{pair_tangles[1]:.6g} + three-tangle {three_tangle:.3g} (vanishes); "
     "classified {classification}"),
    ("|0>xBell (3 qubits)", 0.0,
     "leading qubit separable; remaining pair maximally entangled "
     "(tau per qubit {tau_one_rest[0]:.3g}, {tau_one_rest[1]:.3g}, "
     "{tau_one_rest[2]:.3g}); classified {classification}"),
)


def conformance_rows():
    """The published-example table: one row per state and claim.

    Published E values are reproduced where the arithmetic allows and shown
    side by side with both computed expressions where it does not; the
    density-matrix tau oracle is computed independently of the pair encoding.
    Every row is read from its state's analysis report.
    """
    parsed = [_parse_parts(text) for _, text in PUBLISHED_STATES]
    states = [_make_state(n, parts, True) for n, parts in parsed]
    # The published prefactor 1/sqrt(2*sqrt(10)) does not normalize Phi2
    # (squared norm 2*sqrt(10) ~= 6.325), so it is evaluated twice: exactly
    # as printed, and rescaled to unit norm.
    printed = _divided(parsed[4][1], math.sqrt(2.0 * math.sqrt(10.0)), 0.0)
    states.insert(4, QubitState._trusted(4, tuple(printed)))
    rows = []
    for state, (label, paper_value, note) in zip(states, _CLAIMS):
        r = analysis_report(state)
        oracle = r["concurrence"] ** 2 if state.n == 2 else r["tau_one_rest"][0]
        rows.append(ConformanceRow(
            label, paper_value, r["e_complement"], r["e_sum"], oracle, note.format(**r)
        ))
    return rows


def rows_to_text(rows):
    headers = ("state", "published", "e_complement", "e_sum", "oracle tau", "match")
    table = [
        (
            r.label,
            f"{r.paper_value:.10g}",
            f"{r.computed_e_complement:.10g}",
            f"{r.computed_e_sum:.10g}",
            f"{r.oracle_tau:.10g}",
            "yes" if r.match else "NO",
        )
        for r in rows
    ]
    widths = [
        max(len(headers[c]), max(len(row[c]) for row in table))
        for c in range(len(headers))
    ]
    out = io.StringIO()
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line.rstrip() + "\n")
    out.write("-" * len(line) + "\n")
    for r, row in zip(rows, table):
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")
        out.write(f"    note: {r.note}\n")
    mismatches = sum(1 for r in rows if not r.match)
    out.write(f"\n{len(rows)} checks, {len(rows) - mismatches} matching, "
              f"{mismatches} mismatching (mismatches are reported, never hidden)\n")
    return out.getvalue()


def rows_to_json(rows):
    return json.dumps([r.as_dict() for r in rows], indent=2) + "\n"


def _csv_quote(text):
    return '"' + text.replace('"', '""') + '"'


def rows_to_csv(rows):
    out = io.StringIO()
    out.write(",".join(ConformanceRow.__slots__) + "\n")
    for r in rows:
        fields = r.as_dict().values()
        out.write(",".join(
            _csv_quote(v) if isinstance(v, str) else _csv_scalar(v) for v in fields
        ) + "\n")
    return out.getvalue()


# States per step of sample_rows.  The base-point and tau kernels make one
# ufunc call per term per step, about 800 at n = 4 whatever the step's size,
# while the step's arrays grow with it (at n = 4, 128 KB each of amplitudes
# and of part columns per 512 states), all well under the text of a
# 10**4-state table, so streaming the steps keeps peak memory down.  With
# perfbench's sample workload (10 s runs, one pinned CPU of a 2-core x86 VM,
# three runs each) the p50 per 10**4-state batch was 74-77 ms at 256 states
# per step, 69-74 ms at 512 and 63-69 ms at 1024, where the peak RSS was
# 2 MB (5%) higher than at 512.
_SAMPLE_CHUNK = 512


def sample_rows(n, count, seed):
    """The text of sample_table as a stream: the header line, then the rows
    of each chunk of states as one string.  The arguments are checked, and
    numpy imported, on the call, before the stream is returned."""
    _check_qubit_count(n)
    _check_natural("count", count)
    _check_natural("seed", seed)
    # Sample tables need numpy: without it the call raises here, before a
    # line is streamed.
    np.ndarray
    return _sample_chunks(n, count, seed)


def _sample_chunks(n, count, seed):
    yield "index,e_complement,e_sum,norm_defect,tau_a" + (",ball_radius" if n == 4 else "") + "\n"
    for start in range(0, count, _SAMPLE_CHUNK):
        indices = range(start, min(start + _SAMPLE_CHUNK, count))
        amps = _random_amplitudes(n, seed, indices)
        # The one-state kernels take one (N,) column per amplitude part, each
        # that part of every state.
        parts = list(np.ascontiguousarray(amps.view(np.float64).T))
        bc = _base_point(n, parts)
        columns = [bc.e_complement, bc.e_sum, bc.norm_defect, _tau_front(parts)]
        if n == 4:
            x, y, z = bc.comps[0], bc.comps[1], bc.delta
            columns.append(np.sqrt(x * x + y * y + z * z))
        # e_sum at n = 1 is the float 0.0 of every state.
        rows = zip(indices, *(c.tolist() for c in np.broadcast_arrays(*columns)))
        # %r is repr, so one format per chunk writes each row's own text.
        row_format = "%d" + ",%r" * len(columns) + "\n"
        yield row_format * len(indices) % tuple(itertools.chain.from_iterable(rows))


def sample_table(n, count, seed):
    """CSV lines for `count` random n-qubit states under a fixed seed.

    Values are the raw base-map quantities (no boundary snapping) so the
    defect identity e_complement - e_sum = norm_defect stays exact in the
    output; the tau column is the independent density-matrix value.
    Row ``index`` is the state random_state(n, seed, index).
    """
    return "".join(sample_rows(n, count, seed))


def analyze_state(state, qubit=0):
    """Bring `qubit` into the leading role and build the analysis report."""
    return analysis_report(bring_to_front(state, qubit))
