import json

import numpy as np

import hopfq.reporting
import hopfq.tangles
from hopfq.fibration import ball_coordinates, base_coordinates, e_measure, is_mes
from hopfq.reporting import (
    MATCH_TOL,
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
    bell_state,
    bring_to_front,
    ghz_state,
    make_state,
    random_state,
    w_state,
)
from hopfq.tangles import (
    classify_three,
    concurrence,
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
        "separable", "classification",
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


def test_sample_rows_stream_one_string_per_chunk():
    count = 2 * _SAMPLE_CHUNK + 1
    chunks = list(sample_rows(2, count, seed=4))
    assert len(chunks) == 4  # the header, then three chunks
    assert [c.count("\n") for c in chunks] == [1, _SAMPLE_CHUNK, _SAMPLE_CHUNK, 1]
    assert "".join(chunks) == sample_table(2, count, seed=4)


def test_report_computes_base_coordinates_once(monkeypatch):
    calls = []

    def counted(state):
        calls.append(state)
        return base_coordinates(state)

    monkeypatch.setattr(hopfq.reporting, "base_coordinates", counted)
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
    calls = []

    def counted(state, qubit, tol=hopfq.tangles.SEP_TOL):
        calls.append(qubit)
        return separable_one_rest(state, qubit, tol)

    for state, separable, label in cases:
        monkeypatch.setattr(hopfq.reporting, "separable_one_rest", counted)
        monkeypatch.setattr(hopfq.tangles, "separable_one_rest", counted)
        calls.clear()
        report = analysis_report(state)
        assert calls == [0, 1, 2]
        monkeypatch.undo()
        assert report["separable"] == separable
        assert report["classification"] == label == classify_three(state)
