import csv
import hashlib
import importlib.metadata
import importlib.resources
import io
import json
import pathlib
import sys

import numpy as np
import pytest

import hopfq.cli as cli
from hopfq.states import StateError, ghz_state, permute_qubits, read_state_file, state_to_json

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli below 3.11
    import tomli as tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_ghz4(capsys):
    code, out, err = _run(
        capsys, "analyze", "--state", "(|0000>+|1111>)/sqrt(2)"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["n"] == 4
    assert report["e_complement"] == 1.0
    assert report["ball"] == [0.0, 0.0, 0.0]
    assert report["mes"] is True


def test_analyze_separable(capsys):
    code, out, _ = _run(capsys, "analyze", "--state", "|01>")
    assert code == 0
    report = json.loads(out)
    assert report["e_complement"] == 0.0
    assert report["separable"] == [True, True]


def test_analyze_csv_format(capsys):
    code, out, _ = _run(
        capsys, "analyze", "--state", "|01>", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    assert "e_complement,0.0" in out


def test_analyze_parse_error_exit_1(capsys):
    code, out, err = _run(capsys, "analyze", "--state", "|01> + |001>")
    assert code == 1
    assert out == ""
    assert "line 1" in err and "column" in err


def test_analyze_invalid_state_exit_2(capsys):
    code, _, err = _run(capsys, "analyze", "--state", "|00> + |11>")
    assert code == 2 and "normalize" in err
    code, _, _ = _run(
        capsys, "analyze", "--state", "|00> + |11>", "--normalize"
    )
    assert code == 0


def test_analyze_normalize_at_extreme_scales(capsys):
    # the norm of the first state overflows, that of the second underflows
    for scale in ("1e200", "1e-170"):
        code, out, err = _run(
            capsys, "analyze", "--state", f"{scale}|00>+{scale}|11>", "--normalize"
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        r = 1 / np.sqrt(2)
        assert np.allclose(report["amplitudes"], [[r, 0], [0, 0], [0, 0], [r, 0]], atol=1e-15)
        assert report["e_complement"] == 1.0


def test_analyze_out_of_range_input_is_a_typed_error(capsys):
    # a RuntimeWarning would fail this test: the suite turns them into errors
    code, out, err = _run(capsys, "analyze", "--state", "1e308*10|0>")
    assert (code, out) == (1, "")
    assert "column 6" in err and "range" in err and "Warning" not in err
    code, out, err = _run(capsys, "analyze", "--state", "1e200|0>")
    assert (code, out) == (2, "")
    assert "normalize" in err and "Warning" not in err


def test_analyze_qubit_out_of_range_exit_2(capsys):
    code, _, err = _run(
        capsys, "analyze", "--state", "|01>", "--qubit", "5"
    )
    assert code == 2 and "out of range" in err


def test_analyze_numeric_failure_exit_3(capsys, monkeypatch):
    def boom(state, qubit=0):
        raise FloatingPointError("synthetic overflow")

    monkeypatch.setattr(cli, "analyze_state", boom)
    code, _, err = _run(capsys, "analyze", "--state", "|01>")
    assert code == 3 and "numeric" in err


def test_analyze_qubit_flag_equals_permuted(capsys, tmp_path):
    expr = "1/sqrt(6)*(sqrt(2)|1111>+|1000>+|0100>+|0010>+|0001>)"
    code, via_flag, _ = _run(
        capsys, "analyze", "--state", expr, "--qubit", "2"
    )
    assert code == 0
    # same analysis after moving qubit 2 into the lead by hand
    from hopfq.braket import parse_state

    moved = permute_qubits(parse_state(expr), [2, 0, 1, 3])
    path = tmp_path / "moved.json"
    path.write_text(state_to_json(moved), encoding="utf-8")
    code, direct, _ = _run(capsys, "analyze", "--state", str(path))
    assert code == 0
    assert json.loads(via_flag) == json.loads(direct)


def test_analyze_reads_state_files(capsys, tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(state_to_json(ghz_state(3)), encoding="utf-8")
    code, out, _ = _run(capsys, "analyze", "--state", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3 and report["classification"] == "entangled"


def test_analyze_unreadable_state_file_exit_2(capsys, tmp_path):
    # a file that is not UTF-8 is a state error, not a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": 1, "amplitudes": [[1, 0], [0, 0]]}\xff')
    code, out, err = _run(capsys, "analyze", "--state", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read state file {path}: ")
    assert "Traceback" not in err
    with pytest.raises(StateError, match="cannot read state file"):
        read_state_file(tmp_path / "missing.json")


def test_analyze_rerun_byte_identical(capsys):
    args = ("analyze", "--state", "(|0000>+|1111>)/sqrt(2)")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_verify_text(capsys):
    code, out, _ = _run(capsys, "verify-paper")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == (
        "10 checks, 6 matching, 4 mismatching (mismatches are reported, never hidden)"
    )
    _, again, _ = _run(capsys, "verify-paper")
    assert out == again


def test_verify_strict_exit_4(capsys):
    code, out, _ = _run(capsys, "verify-paper", "--strict")
    assert code == 4
    assert out != ""  # the table still prints before the strict verdict


def test_verify_json_and_csv(capsys):
    code, out, _ = _run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 10
    code, out, _ = _run(capsys, "verify-paper", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("label,paper_value,")


def test_verify_csv_parses_to_seven_fields(capsys):
    # labels such as "Phi2 (4 qubits, as printed)" hold commas: quoted, every
    # record keeps the header's 7 fields
    code, out, _ = _run(capsys, "verify-paper", "--format", "csv")
    assert code == 0
    records = list(csv.reader(io.StringIO(out)))
    assert len(records) == 11
    assert all(len(record) == 7 for record in records)
    assert records[5][0] == "Phi2 (4 qubits, as printed)"


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = _run(
        capsys, "verify-paper", "--format", "csv", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8").startswith("label,paper_value,")


def test_sample_deterministic(capsys, tmp_path):
    args = ("sample", "--qubits", "3", "--count", "10", "--seed", "5")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert len(first.strip().splitlines()) == 11
    path = tmp_path / "samples.csv"
    code, out, _ = _run(capsys, *args, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == first


def test_sample_bad_arguments(capsys):
    code, _, err = _run(capsys, "sample", "--qubits", "2", "--count", "0")
    assert code == 2 and "count" in err
    code, _, err = _run(
        capsys, "sample", "--qubits", "2", "--count", "1", "--seed", "-3"
    )
    assert code == 2 and "seed" in err


def test_sample_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    code, _, err = _run(
        capsys,
        "sample", "--qubits", "2", "--count", "1", "--out", str(target),
    )
    assert code == 2 and "cannot write" in err


def test_zero_divisor_census(capsys):
    code, out, _ = _run(capsys, "zero-divisors")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level 1 (complex): none"
    assert lines[1] == "level 2 (quaternion): none"
    assert lines[2] == "level 3 (octonion): none"
    assert "336 two-term basis zero-divisor pairs" in lines[3]
    assert "  (i3 + i10) * (i6 - i15) = 0" in lines
    assert len([ln for ln in lines if ln.startswith("  (")]) == 336


def test_zero_divisor_census_output_is_pinned(capsys):
    # byte for byte the census as first computed by contracting the dense
    # structure tensor one pair at a time: same pairs, same order
    code, out, _ = _run(capsys, "zero-divisors")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d15ab6f5b5bcc01a38e768f6cd40b1620987c1c32d86681261eb180ac4c2b2bd"
    )


def test_zero_divisor_table(capsys):
    code, out, _ = _run(capsys, "zero-divisors", "--table", "--level", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,sign,index"
    assert "1,2,+,3" in lines
    assert len(lines) == 17


def test_zero_divisor_table_matches_shipped_data(capsys):
    code, out, _ = _run(capsys, "zero-divisors", "--table", "--level", "4")
    assert code == 0
    shipped = (
        importlib.resources.files("hopfq")
        .joinpath("data/basis_products_level4.csv")
        .read_text()
    )
    assert out == shipped


def _declared_script():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hopfq"]


def _installed_distribution():
    try:
        return importlib.metadata.distribution("hopfq")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_registered():
    # the declaration in pyproject.toml is what installers turn into the
    # `hopfq` command, so check it (and that it resolves) from the source tree
    declared = _declared_script()
    assert declared == "hopfq.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="hopfq", value=declared, group="console_scripts"
    )
    assert ep.load() is cli.main


@pytest.mark.skipif(
    _installed_distribution() is None,
    reason="no hopfq distribution is installed, so no console_scripts "
    "metadata exists to check",
)
def test_installed_console_script_matches_declaration():
    scripts = _installed_distribution().entry_points.select(
        group="console_scripts", name="hopfq"
    )
    assert [ep.value for ep in scripts] == [_declared_script()]
