import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_braket import _FINITE
from test_fibration import _draw_unit_state, _random_product

import hopfq.fibration
import hopfq.reporting
import hopfq.tangles
from hopfq.braket import format_state, parse_state
from hopfq.fibration import ball_coordinates, base_coordinates, e_measure, is_mes
from hopfq.reporting import (
    MATCH_TOL,
    PUBLISHED_STATES,
    _SAMPLE_CHUNK,
    ConformanceRow,
    analysis_report,
    analyze_state,
    conformance_rows,
    report_to_csv,
    report_to_json,
    rows_to_csv,
    rows_to_json,
    rows_to_text,
    sample_rows,
    sample_table,
)
from hopfq.states import (
    QubitState,
    ShapeError,
    StateError,
    bell_state,
    bring_to_front,
    ghz_state,
    make_state,
    random_state,
    w_state,
)
from hopfq.tangles import (
    _separable_front,
    classify_three,
    concurrence,
    pair_tangles,
    separable_one_rest,
    tau_one_rest,
    three_tangle,
)


def test_report_keys_by_qubit_count():
    assert list(analysis_report(random_state(1, seed=1)).keys()) == [
        "n", "amplitudes", "delta", "comps",
    ]
    assert list(analysis_report(bell_state()).keys()) == [
        "n", "amplitudes", "delta", "comps", "e_complement", "e_sum",
        "norm_defect", "tau_one_rest", "concurrence", "separable",
    ]
    assert list(analysis_report(ghz_state(3)).keys()) == [
        "n", "amplitudes", "delta", "comps", "e_complement", "e_sum",
        "norm_defect", "tau_one_rest", "three_tangle", "two_tangles",
        "pair_tangles", "separable", "classification",
    ]
    assert list(analysis_report(ghz_state(4)).keys()) == [
        "n", "amplitudes", "delta", "comps", "e_complement", "e_sum",
        "norm_defect", "ball", "mes", "tau_one_rest", "separable",
    ]


def test_report_projects_module_outputs():
    for n, seed in ((2, 601), (3, 602), (4, 603)):
        s = random_state(n, seed=seed)
        r = analysis_report(s)
        e = e_measure(s)
        assert r["e_complement"] == e[0]
        assert r["e_sum"] == e[1]
        assert r["norm_defect"] == e[2]
        assert r["tau_one_rest"] == [tau_one_rest(s, q) for q in range(n)]
        if n == 2:
            assert r["concurrence"] == concurrence(s)
        if n == 3:
            assert r["three_tangle"] == three_tangle(s)
            assert r["pair_tangles"] == list(pair_tangles(s))
        if n == 4:
            assert tuple(r["ball"]) == ball_coordinates(s)
        amps = np.array([complex(a, b) for a, b in r["amplitudes"]])
        assert np.array_equal(amps, s.amps)


def test_report_json_lossless():
    s = random_state(4, seed=604)
    r = analysis_report(s)
    back = json.loads(report_to_json(s and r))
    assert back == r


def test_report_csv_shape():
    text = report_to_csv(analysis_report(bell_state()))
    lines = text.strip().splitlines()
    assert lines[0] == "field,value"
    fields = dict(ln.split(",", 1) for ln in lines[1:])
    assert fields["n"] == "2"
    assert "amp_0_re" in fields and "amp_3_im" in fields
    assert fields["separable_0"] in ("true", "false")
    assert float(fields["e_complement"]) == 1.0


def test_analyze_state_permutes():
    s = random_state(4, seed=605)
    for q in range(4):
        direct = analyze_state(s, qubit=q)
        moved = analysis_report(bring_to_front(s, q))
        assert direct == moved
    assert analyze_state(s, np.int64(2)) == analyze_state(s, 2)
    # False and 0.0 once skipped the index check; True raised an IndexError
    for q in (True, False, np.True_, 0.0, 1.0, -1, 4):
        with pytest.raises(ValueError, match="out of range"):
            analyze_state(s, q)


def test_conformance_row_match_rule():
    row = ConformanceRow("x", 0.5, 0.5 + 5e-4, 0.5, 0.5, "")
    assert row.match
    row = ConformanceRow("x", 0.5, 0.5 + 2e-3, 0.5, 0.5, "")
    assert not row.match
    assert MATCH_TOL == 1e-3


def test_conformance_table_contents():
    rows = conformance_rows()
    assert len(rows) == 10
    by_label = {r.label: r for r in rows}

    ghz4 = by_label["GHZ (4 qubits)"]
    assert ghz4.paper_value == 1.0 and ghz4.match
    assert abs(ghz4.computed_e_complement - 1.0) < 1e-12
    assert abs(ghz4.oracle_tau - 1.0) < 1e-12

    w0 = by_label["W0 (4 qubits)"]
    assert w0.paper_value == 0.5 and not w0.match
    assert abs(w0.computed_e_complement - 0.75) < 1e-12

    w1 = by_label["W1 (4 qubits)"]
    assert w1.paper_value == 0.75 and w1.match

    phi1 = by_label["Phi1 (4 qubits)"]
    assert abs(phi1.paper_value - 8.0 / 9.0) < 1e-12 and not phi1.match
    assert abs(phi1.computed_e_complement - 1.0) < 1e-12
    # the note states only what is computed: both forms and the oracle give 1
    assert abs(phi1.computed_e_sum - 1.0) < 1e-12 and abs(phi1.oracle_tau - 1.0) < 1e-12
    assert phi1.note == (
        "published 8/9; both computed forms and the density-matrix oracle give 1 "
        "(leading qubit maximally mixed)"
    )

    # the published prefactor does not normalize this state, so it is
    # evaluated both ways and both rows miss the published number
    printed = [r for r in rows if "printed" in r.note or "printed" in r.label.lower()]
    assert len([r for r in rows if r.paper_value == 0.6625]) == 2
    assert all(not r.match for r in rows if r.paper_value == 0.6625)

    bell = by_label["Bell (2 qubits)"]
    assert bell.match and abs(bell.oracle_tau - 1.0) < 1e-12

    assert by_label["GHZ (3 qubits)"].match
    w3 = by_label["W (3 qubits)"]
    assert abs(w3.paper_value - 8.0 / 9.0) < 1e-12 and w3.match

    matches = sum(1 for r in rows if r.match)
    assert matches == 6


def test_conformance_oracle_column_agrees():
    # every unit-norm row's density-matrix oracle tracks the geometric value;
    # the as-printed row is deliberately non-normalized, so the quadratic
    # forms scale differently there
    for r in conformance_rows():
        if "as printed" in r.label:
            assert abs(r.computed_e_sum - r.oracle_tau) < 1e-9
            continue
        assert abs(r.computed_e_complement - r.oracle_tau) < 1e-9


def test_rows_text_deterministic_and_complete():
    a = rows_to_text(conformance_rows())
    b = rows_to_text(conformance_rows())
    assert a == b
    assert a.splitlines()[-1] == (
        "10 checks, 6 matching, 4 mismatching (mismatches are reported, never hidden)"
    )
    assert "mismatch" in a
    assert "GHZ (4 qubits)" in a


def test_rows_json():
    data = json.loads(rows_to_json(conformance_rows()))
    assert len(data) == 10
    for entry in data:
        for key in (
            "label", "paper_value", "computed_e_complement",
            "computed_e_sum", "oracle_tau", "match", "note",
        ):
            assert key in entry
        assert isinstance(entry["match"], bool)


def test_rows_csv():
    text = rows_to_csv(conformance_rows())
    lines = text.strip().splitlines()
    assert lines[0] == (
        "label,paper_value,computed_e_complement,computed_e_sum,"
        "oracle_tau,match,note"
    )
    assert len(lines) == 11


def test_sample_table_deterministic():
    a = sample_table(3, 20, seed=99)
    b = sample_table(3, 20, seed=99)
    assert a == b
    c = sample_table(3, 20, seed=100)
    assert a != c


def test_sample_table_columns():
    text = sample_table(2, 5, seed=1)
    lines = text.strip().splitlines()
    assert lines[0] == "index,e_complement,e_sum,norm_defect,tau_a"
    assert len(lines) == 6
    text = sample_table(4, 5, seed=1)
    assert text.strip().splitlines()[0] == (
        "index,e_complement,e_sum,norm_defect,tau_a,ball_radius"
    )


def test_sample_table_takes_int_arguments_only():
    # n = 5 and n = 0 once raised KeyError, and n = True ran as n = 1; the
    # stream once yielded its header before a bad n or seed raised, and then
    # checked them only at its first next(), after a caller had opened --out
    for n in (5, 0, True, 4.0):
        with pytest.raises(ShapeError):
            sample_table(n, 2, 1)
        with pytest.raises(ShapeError):
            sample_rows(n, 0, 1)
    for count, seed in ((2.0, 1), (-1, 1), (2, True), (2, 1.5), (2, -1), (-1, 0)):
        with pytest.raises(StateError, match="nonnegative integer"):
            sample_table(2, count, seed)
        with pytest.raises(StateError, match="nonnegative integer"):
            sample_rows(2, count, seed)
    assert sample_table(2, np.int64(3), np.uint16(1)) == sample_table(2, 3, 1)


def test_sample_table_column_identities():
    # geometric column vs density-matrix column, and the defect identity,
    # must survive the round-trip through decimal text
    text = sample_table(3, 200, seed=7)
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    for _, e_comp, e_sum, defect, tau in rows:
        assert abs(float(e_comp) - float(tau)) < 1e-9
        assert abs((float(e_comp) - float(e_sum)) - float(defect)) < 1e-12
    text = sample_table(4, 200, seed=8)
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    for _, e_comp, e_sum, defect, tau, radius in rows:
        assert abs((float(e_comp) - float(e_sum)) - float(defect)) < 1e-12
        assert abs(float(radius) ** 2 - (1.0 - float(e_comp))) < 1e-12
        assert abs(float(e_comp) - float(tau)) < 1e-12


def test_sample_rows_match_scalar_api():
    # each batched row is byte for byte the row of that state alone, across
    # a chunk boundary
    count = _SAMPLE_CHUNK + 20
    for n in (1, 2, 3, 4):
        lines = sample_table(n, count, seed=31).splitlines()
        assert len(lines) == count + 1
        for index, line in enumerate(lines[1:]):
            state = random_state(n, seed=31, index=index)
            bc = base_coordinates(state)
            row = [index, bc.e_complement, bc.e_sum, bc.norm_defect, tau_one_rest(state, 0)]
            if n == 4:
                x, y, z = ball_coordinates(state)
                row.append(float(np.sqrt(x * x + y * y + z * z)))
            assert line == ",".join(map(repr, row))


def test_sample_output_digest_is_pinned():
    # sha256 of sample's text for n = 1..4 at three seeds, one of them past a
    # 32-bit word
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4):
        for seed in (0, 11, 2**40 + 3):
            digest.update(sample_table(n, 3000, seed).encode())
    assert digest.hexdigest() == "326aa28880203ed1cda5cafaf8cf99ee6ecd03923c00c8b183b7b99ba65518c6"


def test_sample_rows_stream_one_string_per_chunk():
    count = 2 * _SAMPLE_CHUNK + 1
    chunks = list(sample_rows(2, count, seed=4))
    assert len(chunks) == 4  # the header, then three chunks
    assert [c.count("\n") for c in chunks] == [1, _SAMPLE_CHUNK, _SAMPLE_CHUNK, 1]
    assert "".join(chunks) == sample_table(2, count, seed=4)


@pytest.fixture(scope="module")
def default_chunk_tables():
    return {n: sample_table(n, 600, seed=19) for n in (1, 2, 3, 4)}


@pytest.mark.parametrize("chunk", [1, 7, 255, 256, 1000])
def test_sample_text_does_not_depend_on_chunk_size(monkeypatch, default_chunk_tables, chunk):
    # A row's text is that of its state alone, so neither the batched kernel
    # nor the one format per chunk may depend on where the chunks split.
    monkeypatch.setattr(hopfq.reporting, "_SAMPLE_CHUNK", chunk)
    for n, table in default_chunk_tables.items():
        assert sample_table(n, 600, seed=19) == table


def test_report_computes_base_coordinates_once(monkeypatch):
    calls = []
    base_point = hopfq.fibration._base_point

    def counted(state):
        calls.append(state)
        return base_point(state)

    monkeypatch.setattr(hopfq.fibration, "_base_point", counted)
    state = random_state(4, seed=5, index=2)
    report = analysis_report(state)
    assert len(calls) == 1
    # the values derived from that one projection are the public functions'
    assert (report["e_complement"], report["e_sum"], report["norm_defect"]) == e_measure(state)
    assert tuple(report["ball"]) == ball_coordinates(state)
    assert report["mes"] is is_mes(state)


def test_report_tests_each_qubit_for_separability_once(monkeypatch):
    r = 1 / np.sqrt(2)
    cases = [
        (ghz_state(3), [False, False, False], "entangled"),
        (w_state(3), [False, False, False], "entangled"),
        (make_state(3, [r, 0, 0, r, 0, 0, 0, 0]), [True, False, False], "bi-separable"),
        (make_state(3, [0, 0, r, 0, 0, 0, 0, r]), [False, True, False], "bi-separable"),
        (make_state(3, [0.5, 0.5, 0, 0, 0.5, 0.5, 0, 0]), [True, True, True], "fully-separable"),
    ] + [(random_state(3, seed=12, index=k), [False] * 3, "entangled") for k in range(3)]
    tests, gathers = [], []

    def counted_test(front):
        tests.append(front)
        return _separable_front(front)

    front = hopfq.tangles._front

    def counted_front(state, qubit):
        gathers.append(qubit)
        return front(state, qubit)

    for state, separable, label in cases:
        monkeypatch.setattr(hopfq.tangles, "_separable_front", counted_test)
        monkeypatch.setattr(hopfq.tangles, "_front", counted_front)
        tests.clear()
        gathers.clear()
        report = analysis_report(state)
        # One minor test per qubit, on its front rows, each gathered once for
        # every tangle field; classify_three reads the class off one such
        # list too.
        assert tests == [front(state, q) for q in range(3)]
        assert gathers == [0, 1, 2]
        tests.clear()
        assert classify_three(state) == label
        assert tests == [front(state, q) for q in range(3)]
        monkeypatch.undo()
        assert report["separable"] == separable
        assert separable == [separable_one_rest(state, q) for q in range(3)]
        assert report["classification"] == label


# A Haar-like 3-qubit state whose largest 2x2 minors for qubits A, B and C
# are 9.06e-10, 9.50e-10 and 1.008e-9, against SEP_TOL = 1e-9.
_NEAR_TOL_WITNESS = (
    "(0.23382425209332541+0.12567445310265707i)|000> + "
    "(0.18405110607111888-0.1875921790719671i)|001> + "
    "(-0.34311996572000986+0.18082828606133747i)|010> + "
    "(0.077159933956811338+0.37614248703344139i)|011> + "
    "(0.29763096939070754-0.045320737631102621i)|100> + "
    "(0.039105717048661816-0.29547475770542037i)|101> + "
    "(-0.18795103475291408+0.39769694964714752i)|110> + "
    "(0.32618873502756235+0.28851206382195771i)|111>"
)


def test_class_of_a_near_tolerance_witness_follows_its_separable_list():
    # Two qubits pass the minor test and one fails: the report's class is
    # the one its own separable list gives, and classify_three agrees.
    state = parse_state(_NEAR_TOL_WITNESS)
    report = analysis_report(state)
    assert report["separable"] == [True, True, False]
    assert report["classification"] == "bi-separable" == classify_three(state)


# The class by the number of qubits that factor out.
_CLASS_BY_COUNT = {0: "entangled", 1: "bi-separable", 2: "bi-separable", 3: "fully-separable"}
_SPLITS_3 = ([(0, 1, 2)], [(0,), (1, 2)], [(1,), (0, 2)], [(2,), (0, 1)], [(0,), (1,), (2,)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_class_is_the_lookup_of_the_separable_list(data):
    # Haar states, exact products over every split pattern, and those
    # products moved by 1e-10 to 1e-8, where the minors straddle SEP_TOL.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["haar", "product", "perturbed"]))
    if kind == "haar":
        state = random_state(3, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(0, 99)))
    else:
        state = _random_product(3, data.draw(st.sampled_from(_SPLITS_3)), rng)
    if kind == "perturbed":
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        size = 10.0 ** data.draw(st.floats(-10.0, -8.0))
        state = make_state(3, state.amps + size * z / np.linalg.norm(z), normalize=True)
    report = analysis_report(state)
    assert report["classification"] == _CLASS_BY_COUNT[sum(report["separable"])]
    assert classify_three(state) == report["classification"]


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_stacked_report_is_the_per_qubit_report(n, data):
    # Unit states from arbitrary finite parts, each qubit brought to the
    # front: the writer is json.dumps byte for byte, and the stacked lists
    # are the public per-qubit functions (and per-element loops) bit for bit.
    parts = data.draw(st.lists(_FINITE, min_size=2 << n, max_size=2 << n))
    assume(any(parts))
    state = make_state(n, np.array(parts).view(np.complex128), normalize=True)
    for qubit in range(n):
        report = analyze_state(state, qubit)
        assert report_to_json(report) == json.dumps(report, indent=2) + "\n"
        moved = bring_to_front(state, qubit)
        pairs = [[float(a.real), float(a.imag)] for a in moved.amps]
        assert _bits(report["amplitudes"]) == _bits(pairs)
        assert _bits(report["comps"]) == _bits([float(c) for c in base_coordinates(moved).comps])
        if n >= 2:
            taus = [tau_one_rest(moved, q) for q in range(n)]
            assert _bits(report["tau_one_rest"]) == _bits(taus)
            assert report["separable"] == [separable_one_rest(moved, q) for q in range(n)]
        if n == 3:
            assert report["classification"] == classify_three(moved)


def _normalized_report(amps):
    # The JSON report of --normalize on the 17-digit text of these amplitudes.
    text = format_state(QubitState._trusted(len(amps).bit_length() - 1, amps))
    return report_to_json(analysis_report(parse_state(text, normalize=True)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(-480, 480), data=st.data())
def test_normalize_is_exact_under_power_of_two_scaling(n, k, data):
    # Scaling by 2**k is exact while every nonzero part stays a normal double,
    # and so is make_state's own power-of-two step, so the report cannot
    # move.  The reference is k = 0, not s: renormalizing s may move its
    # last bits.
    s = _draw_unit_state(data, n)
    parts = s.amps.view(np.float64)
    scaled = np.ldexp(parts, k)
    assume(np.all(np.abs(scaled[parts != 0]) >= sys.float_info.min))
    assume(np.all(np.isfinite(scaled)))
    assert _normalized_report(scaled.view(np.complex128)) == _normalized_report(s.amps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 4), scale=st.floats(1e-150, 1e150), data=st.data())
def test_normalize_measures_are_scale_invariant(n, scale, data):
    s = _draw_unit_state(data, n)
    before = analysis_report(s)
    after = json.loads(_normalized_report(s.amps * scale))
    assert abs(after["e_complement"] - before["e_complement"]) <= 1e-12
    assert abs(after["e_sum"] - before["e_sum"]) <= 1e-12
    assert np.max(np.abs(np.subtract(after["tau_one_rest"], before["tau_one_rest"]))) <= 1e-12


def test_report_writer_special_values():
    report = {
        "n": 3,
        "amplitudes": [[-0.0, float("nan")], [float("inf"), -float("inf")], [5e-324, 1.0]],
        "delta": float("nan"),
        "comps": [-0.0, 0.1, 1.7976931348623157e308, -float("inf"), 1e16, 1e-7],
        "e_sum": -float("inf"),
        "norm_defect": -0.0,
        "mes": True,
        "separable": [True, False, True],
        "classification": 'bi-"separable" \u00e9\n',
    }
    text = report_to_json(report)
    assert text == json.dumps(report, indent=2) + "\n"
    assert '"delta": NaN,' in text and "-Infinity" in text and '"mes": true,' in text
    csv_text = report_to_csv(report)
    for line in ("amp_0_re,-0.0", "amp_0_im,nan", "amp_1_re,inf", "amp_1_im,-inf",
                 "amp_2_re,5e-324", "delta,nan", "comps_2,1.7976931348623157e+308",
                 "comps_4,1e+16", "comps_5,1e-07", "e_sum,-inf", "norm_defect,-0.0",
                 "mes,true", "separable_1,false"):
        assert f"\n{line}\n" in csv_text, line
    assert csv_text.endswith('\nclassification,bi-"separable" \u00e9\n\n')
    # A shape no qubit count produces: three amplitude pairs, a list of five
    # mixed values, a "%" in a key and in a string, and "null" in a key.
    odd = {
        "n": 7,
        "amplitudes": [[0.5, -0.0], [float("nan"), 1e-300], [2.0, 3]],
        "extra": [1, 2.5, True, -float("inf"), 0.1],
        "pct%": 0.25,
        "note": '100% "odd"',
        "null_ok": False,
        "grid": [[1, 2.0], [False]],
    }
    assert report_to_json(odd) == json.dumps(odd, indent=2) + "\n"
    assert report_to_csv(odd) == (
        "field,value\nn,7\namp_0_re,0.5\namp_0_im,-0.0\namp_1_re,nan\n"
        "amp_1_im,1e-300\namp_2_re,2.0\namp_2_im,3\nextra_0,1\nextra_1,2.5\n"
        "extra_2,true\nextra_3,-inf\nextra_4,0.1\npct%,0.25\n"
        'note,100% "odd"\nnull_ok,false\ngrid_0_0,1\ngrid_0_1,2.0\ngrid_1_0,false\n'
    )


def _digest_reports():
    for _, text in PUBLISHED_STATES:
        state = parse_state(text, normalize=True)
        for qubit in range(state.n):
            yield analyze_state(state, qubit)
    for k in range(200):
        n = k % 4 + 1
        yield analyze_state(random_state(n, seed=2718, index=k), k % n)


def test_analyze_output_digest_is_pinned():
    # sha256 of analyze's JSON and CSV text over every published state at
    # every qubit and 200 random states, as the per-qubit report and
    # json.dumps wrote them.  The text holds every float's repr, so numpy
    # float loops that round differently would change it too.
    digest = hashlib.sha256()
    count = 0
    for report in _digest_reports():
        digest.update(report_to_json(report).encode())
        digest.update(report_to_csv(report).encode())
        count += 1
    assert count == 231
    assert digest.hexdigest() == "a0dd5120c6811beb371cfcd61c650de8f656bf996cc4f78b3892ad744f480be2"
