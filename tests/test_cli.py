import argparse
import contextlib
import csv
import errno
import hashlib
import importlib.metadata
import importlib.resources
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy_free import VERIFY_DIGESTS
from test_braket import _FUZZ_ALPHABET, _random_expression

import hopfq
import hopfq.cli as cli
from hopfq.braket import ParseError, format_state, parse_state
from hopfq.cdnum import CDElement, from_complex_pairs
from hopfq.reporting import PUBLISHED_STATES
from hopfq.states import (
    StateError,
    ghz_state,
    make_state,
    permute_qubits,
    product_state,
    random_state,
    read_state_file,
    state_from_json,
    state_to_json,
)

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli below 3.11
    import tomli as tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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
    # bring_to_front owns the qubit range; main maps its StateError to exit 2
    for qubit in ("5", "2", "-1"):
        assert _run(capsys, "analyze", "--state", "|01>", "--qubit", qubit) == (
            2, "", f"error: qubit index {qubit} out of range for n=2\n"
        )


def test_analyze_numeric_failure_exit_3(capsys, monkeypatch):
    def boom(state, qubit=0):
        raise FloatingPointError("synthetic overflow")

    monkeypatch.setattr(hopfq.reporting, "analyze_state", boom)
    code, _, err = _run(capsys, "analyze", "--state", "|01>")
    assert code == 3 and "numeric" in err


@pytest.mark.parametrize("error, code, message", [
    (StateError("synthetic state error"), 2, "synthetic state error"),
    (ParseError("synthetic parse error", 1, 2), 1, "line 1, column 2: synthetic parse error"),
    (FloatingPointError("synthetic overflow"), 3, "numeric failure: synthetic overflow"),
], ids=["state", "parse", "numeric"])
@pytest.mark.parametrize("module, name, argv", [
    ("reporting", "conformance_rows", ["verify-paper"]),
    ("reporting", "sample_rows", ["sample", "--qubits=2", "--count=3"]),
    ("cdnum", "find_basis_zero_divisors", ["zero-divisors"]),
], ids=["verify-paper", "sample", "zero-divisors"])
def test_typed_errors_of_every_command_map_to_exit_codes(
    capsys, monkeypatch, error, code, message, module, name, argv
):
    # One ladder in main serves every command: an error, not a traceback.
    def boom(*args):
        raise error

    monkeypatch.setattr(getattr(hopfq, module), name, boom)
    assert _run(capsys, *argv) == (code, "", f"error: {message}\n")


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


def test_integer_amplitude_past_the_float_range_exit_2(capsys, tmp_path):
    # 1e400 as a float literal is a StateError already; as an integer too
    doc = '{"n": 1, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400)
    with pytest.raises(StateError, match="out of the float range"):
        state_from_json(doc)
    path = tmp_path / "big.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = _run(capsys, "analyze", "--state", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "float range" in err


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


@pytest.mark.parametrize("fmt, digest", VERIFY_DIGESTS.items(), ids=list(VERIFY_DIGESTS))
def test_verify_output_is_pinned(capsys, fmt, digest):
    # sha256 of the table: every float's repr, as the hand-built rows, one
    # scalar call per quantity, first wrote it, every verdict, and the notes,
    # whose GHZ3 and W3 lines quote the CKW split from the report.  The
    # digests live in numpy_free.py, which checks them without numpy.
    code, out, _ = _run(capsys, "verify-paper", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_sample_bad_arguments(capsys, tmp_path):
    code, _, err = _run(capsys, "sample", "--qubits", "2", "--count", "0")
    assert (code, err) == (2, "error: --count must be at least 1\n")
    code, _, err = _run(
        capsys, "sample", "--qubits", "2", "--count", "1", "--seed", "-3"
    )
    assert code == 2 and "seed" in err
    # The library's seed check runs before --out is opened.
    target = tmp_path / "x.csv"
    code, _, err = _run(
        capsys, "sample", "--qubits", "2", "--count", "1", "--seed", "-3", "--out", str(target)
    )
    assert code == 2 and "seed" in err and not target.exists()


def test_sample_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    code, _, err = _run(
        capsys,
        "sample", "--qubits", "2", "--count", "1", "--out", str(target),
    )
    assert code == 2 and "cannot write" in err


def test_failed_write_beats_strict(capsys, tmp_path):
    # --strict's exit 4 needs the table written: a failed write is exit 2.
    target = tmp_path / "no_such_dir" / "x"
    code, out, err = _run(capsys, "verify-paper", "--strict", "--out", str(target))
    assert (code, out) == (2, "") and err.startswith(f"error: cannot write {target}: ")


class _BrokenStream(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("stream, reason", [
    (_BrokenStream(), "[Errno 32] Broken pipe"),
    (None, "[Errno 9] Bad file descriptor"),
], ids=["failing-stream", "closed"])
def test_failed_standard_output_without_a_descriptor(capsys, monkeypatch, stream, reason):
    # In process, standard output may have no descriptor (a StringIO, or the
    # None Python sets for a closed one): the failure is still one line.
    monkeypatch.setattr(sys, "stdout", stream)
    code = cli.main(["zero-divisors"])
    assert (code, capsys.readouterr().err) == (2, f"error: cannot write standard output: {reason}\n")


def _command(*argv):
    # A fresh `python -m hopfq.cli` process on this source tree, its standard
    # streams buffered as in a plain shell, so a failed write leaves bytes
    # that the interpreter's flush at exit tries again.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "hopfq.cli", *argv], env


def _assert_one_write_error(returncode, stderr):
    err = stderr.decode(errors="replace")
    assert returncode == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write standard output: "), err


@pytest.mark.parametrize("merged", [False, True], ids=["stderr-apart", "stderr-merged"])
def test_standard_output_closed_after_the_header(merged):
    # `hopfq sample ... | head -1`: the reader goes away after one line, and
    # the next write fails.  With stderr on that pipe too, only the exit
    # code is left to see.
    cmd, env = _command("sample", "--qubits", "4", "--count", "100000", "--seed", "1")
    stderr = subprocess.STDOUT if merged else subprocess.PIPE
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=stderr) as proc:
        assert proc.stdout.readline().startswith(b"index,e_complement,")
        proc.stdout.close()
        err = b"" if merged else proc.stderr.read()
        code = proc.wait(timeout=120)
    if merged:
        assert code == 2
    else:
        _assert_one_write_error(code, err)


_EVERY_COMMAND = (
    ["zero-divisors"], ["verify-paper"], ["analyze", "--state", "|01>"],
    ["sample", "--qubits", "2", "--count", "3"],
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_standard_output_on_a_full_device(argv):
    cmd, env = _command(*argv)
    with open("/dev/full", "wb") as full:
        result = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE, timeout=120)
    _assert_one_write_error(result.returncode, result.stderr)


def test_standard_output_closed():
    # Python starts with sys.stdout None when descriptor 1 is closed; the
    # failed write also beats --strict's exit 4.
    cmd, env = _command("verify-paper", "--strict")
    result = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *cmd], env=env,
                            stderr=subprocess.PIPE, timeout=120)
    _assert_one_write_error(result.returncode, result.stderr)


_CLOSED_STDERR = (
    (["analyze", "--state", "|0"], 1), (["verify-paper", "--out", "missing/x"], 2),
    (["zero-divisors"], 0),
)
_CLOSED_STDERR_IDS = ["parse-error", "unwritable-out", "census"]


@pytest.mark.parametrize("argv, code", _CLOSED_STDERR, ids=_CLOSED_STDERR_IDS)
def test_standard_error_none_in_process(capsys, monkeypatch, tmp_path, argv, code):
    # Python sets sys.stderr to None when descriptor 2 is closed: the error
    # line is dropped, never sent to standard output, and the exit code stays.
    monkeypatch.chdir(tmp_path)
    expected = _run(capsys, *argv)[1]
    monkeypatch.setattr(sys, "stderr", None)
    assert _run(capsys, *argv)[:2] == (code, expected)
    assert (expected == "") == (code != 0)


@pytest.mark.parametrize("argv, code", _CLOSED_STDERR, ids=_CLOSED_STDERR_IDS)
def test_standard_error_closed(capsys, tmp_path, argv, code):
    # sys.executable itself, not a launcher script: a shim such as pyenv's
    # reopens descriptor 2, and Python would then see a stream, not None.
    expected = _run(capsys, *argv)[1] if code == 0 else ""
    cmd, env = _command(*argv)
    result = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", *cmd], env=env, cwd=tmp_path,
                            stdout=subprocess.PIPE, timeout=120)
    assert (result.returncode, result.stdout.decode()) == (code, expected)


def _drops_dashes():
    # Whether this Python's argparse drops `--` as the value in `--x=--` and
    # stores [] (3.11.7 does), past type= and choices=.
    probe = argparse.ArgumentParser()
    probe.add_argument("--x")
    return probe.parse_args(["--x=--"]).x == []


# Each command line ends in the option whose value is `--`.
_DASH_VALUES = (
    ["analyze", "--state=--"], ["analyze", "--state=|01>", "--qubit=--"],
    ["analyze", "--state=|01>", "--format=--"], ["verify-paper", "--format=--"],
    ["verify-paper", "--out=--"], ["sample", "--count=1", "--qubits=--"],
    ["sample", "--qubits=2", "--count=--"], ["sample", "--qubits=2", "--count=1", "--seed=--"],
    ["zero-divisors", "--table", "--level=--"],
)


@pytest.mark.parametrize("argv", _DASH_VALUES, ids=" ".join)
def test_option_valued_dashes(capsys, monkeypatch, tmp_path, argv):
    # Where argparse keeps `--` as the value, `--out=--` writes a file of that
    # name: the run is in an empty directory.
    monkeypatch.chdir(tmp_path)
    if _drops_dashes():
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        name = argv[-1].split("=")[0]
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: hopfq {argv[0]} "), err
        assert f"hopfq {argv[0]}: error: argument {name}: expected one argument" in err
        return
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2 and "usage:" in capsys.readouterr().err, argv
        return
    assert code in (0, 1, 2, 3, 4), argv
    if code in (1, 2, 3):
        assert capsys.readouterr().err.startswith("error: "), argv


# Inputs for the typed-errors properties: state text over the parser's fuzz
# alphabet, state documents (JSON of any part type, raw text, deep nesting),
# make_state arguments and format_state digits.
_STATE_TEXTS = st.text(st.sampled_from(_FUZZ_ALPHABET), max_size=30)
_JSON_PARTS = (st.floats() | st.integers(-(10**400), 10**400) | st.booleans()
               | st.none() | st.text(max_size=3))
_STATE_DOCS = st.one_of(
    st.fixed_dictionaries({
        "n": st.integers(-1, 6) | _JSON_PARTS,
        "amplitudes": st.lists(st.lists(_JSON_PARTS, max_size=3), max_size=17) | _JSON_PARTS,
    }).map(json.dumps),
    st.text(max_size=30),
    st.integers(1, 10**5).map(lambda k: "[" * k),
)
_QUBIT_COUNTS = st.integers(-1, 6) | st.sampled_from((True, 2.0, "2", None))
# Booleans, strings and bytes numpy would convert to numbers: each is a pun.
_PUNS = st.booleans() | st.sampled_from(("1", "0", "1e0", b"1", b"0"))
_AMPLITUDES = st.one_of(
    st.lists(st.floats() | st.complex_numbers() | st.integers(-(10**400), 10**400)
             | st.none() | _PUNS, max_size=17),
    st.lists(st.lists(st.floats(), max_size=3), max_size=5),
    st.lists(_PUNS, min_size=1, max_size=17).map(np.array),
    st.text(max_size=4),
)
# product_state factors: hostile amplitudes, or pairs of any float or complex
# parts, so that lists of them reach the count check and the products too.
_FACTORS = _AMPLITUDES | st.lists(st.floats() | st.complex_numbers(), min_size=2, max_size=2)
_DIGITS = st.integers(-2, 20) | st.sampled_from((True, False, 2.0, "2", None, b"2"))


def _has_pun(amps):
    if isinstance(amps, np.ndarray):
        return amps.dtype.kind in "bSU"
    return isinstance(amps, str) or any(isinstance(x, (bool, str, bytes)) for x in amps)


# `--`, `-` and the empty string: any option _argv builds may take one.
_ODD_VALUES = st.sampled_from(("--", "-", ""))


def _option(data, name, values):
    return f"--{name}={data.draw(values | _ODD_VALUES)}"


def _argv(data, directory):
    # One command line over the four subcommands with bounded flag values.
    command = data.draw(st.sampled_from(("analyze", "verify-paper", "sample", "zero-divisors")))
    if command == "analyze":
        state = data.draw(_STATE_TEXTS | _ODD_VALUES)
        if data.draw(st.booleans()):
            state = str(directory / "state.json")
            pathlib.Path(state).write_text(data.draw(_STATE_DOCS), encoding="utf-8")
        argv = [command, f"--state={state}", _option(data, "qubit", st.integers(-2, 5))]
        argv += data.draw(st.sampled_from(([], ["--normalize"])))
        if data.draw(st.booleans()):
            argv.append(_option(data, "format", st.sampled_from(("csv", "xml"))))
    elif command == "verify-paper":
        argv = [command] + data.draw(st.sampled_from(([], ["--strict"])))
        if data.draw(st.booleans()):
            argv.append(_option(data, "format", st.sampled_from(("json", "csv"))))
    elif command == "sample":
        argv = [command, _option(data, "qubits", st.integers(0, 5)),
                _option(data, "count", st.integers(-2, 50)),
                _option(data, "seed", st.integers(-3, 2**70))]
    else:
        argv = [command] + data.draw(st.sampled_from(([], ["--table"])))
        argv.append(_option(data, "level", st.integers(-1, 5)))
    if data.draw(st.booleans()):
        argv.append(_option(data, "out", st.sampled_from(("out.txt", "missing/out.txt")).map(
            lambda out: directory / out)))
    return argv


@contextlib.contextmanager
def _working_directory(path):
    # contextlib.chdir, which Python 3.10 lacks.
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_ends_in_a_documented_exit(tmp_path_factory, data):
    # Exit 0-4 as documented, or argparse's usage exit 2: no other exception
    # and no RuntimeWarning.  The run is in the base directory, where an
    # `--out=--` or `--out=-` that argparse keeps writes a file of that name.
    directory = tmp_path_factory.getbasetemp()
    argv = _argv(data, directory)
    out, err = io.StringIO(), io.StringIO()
    with _working_directory(directory), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and "usage:" in err.getvalue(), argv
            return
    assert code in (0, 1, 2, 3, 4), argv
    if code in (1, 2, 3):
        assert err.getvalue().startswith("error: "), argv


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_entry_points_raise_only_typed_errors(data):
    entry = data.draw(st.sampled_from(
        ("parse_state", "state_from_json", "make_state", "product_state", "CDElement",
         "from_complex_pairs", "format_state")
    ))
    normalize = data.draw(st.booleans())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            if entry == "parse_state":
                parse_state(data.draw(_STATE_TEXTS | st.text()), normalize=normalize)
            elif entry == "state_from_json":
                state_from_json(data.draw(_STATE_DOCS), normalize=normalize)
            elif entry == "make_state":
                amps = data.draw(_AMPLITUDES)
                make_state(data.draw(_QUBIT_COUNTS), amps, normalize=normalize)
                # A boolean, string or bytes amplitude never makes a state.
                assert not _has_pun(amps), amps
            elif entry == "product_state":
                factors = data.draw(st.lists(_FACTORS, max_size=6))
                product_state(factors)
                # 1-4 factors, none of them a pun, make a state.
                assert 1 <= len(factors) <= 4, factors
                assert not any(map(_has_pun, factors)), factors
            elif entry == "format_state":
                # digits is an int from 1 to 17; anything else is a ValueError.
                digits = data.draw(_DIGITS)
                valid = type(digits) is int and 1 <= digits <= 17
                try:
                    format_state(ghz_state(2), digits)
                except ValueError:
                    assert not valid, digits
                    return
                assert valid, digits
            else:
                # Elements take the same pun rule; their errors are ValueError,
                # TypeError and ArithmeticError.
                coeffs = data.draw(_AMPLITUDES)
                build = CDElement if entry == "CDElement" else from_complex_pairs
                try:
                    build(data.draw(_QUBIT_COUNTS), coeffs)
                except (ValueError, TypeError, ArithmeticError):
                    return
                assert not _has_pun(coeffs), coeffs
        except (ParseError, StateError):
            pass


def _contract_state(rng, directory):
    # A --state value: bra-ket text with any outcome, or a state file.
    kind = rng.randrange(5)
    if kind < 2:
        return rng.choice(PUBLISHED_STATES)[1]
    if kind == 2:
        return _random_expression(rng, rng.randint(1, 4))
    if kind == 3:
        return "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randrange(20)))
    n = rng.randint(1, 4)
    doc = rng.choice((
        state_to_json(random_state(n, seed=rng.randrange(100), index=rng.randrange(100))),
        json.dumps({"n": rng.randint(0, 5),
                    "amplitudes": [[rng.choice((0, 1, 0.5, 3)), 0] for _ in range(1 << n)]}),
        "{not json",
    ))
    path = directory / "state.json"
    path.write_text(doc, encoding="utf-8")
    return str(path)


def _contract_argv(rng, directory):
    # One command line over the four subcommands, good and bad values alike.
    command = rng.choice(("analyze", "analyze", "verify-paper", "sample", "zero-divisors"))
    if command == "analyze":
        qubit = rng.randint(-2, 5) if rng.random() < 0.4 else rng.randint(0, 1)
        argv = [command, f"--state={_contract_state(rng, directory)}", f"--qubit={qubit}"]
        argv += rng.choice(([], ["--normalize"]))
        argv += rng.choice(([], [], [], ["--format=csv"], ["--format=csv"], ["--format=xml"]))
    elif command == "verify-paper":
        argv = [command] + rng.choice(([], ["--strict"]))
        argv += rng.choice(([], ["--format=text"], ["--format=json"], ["--format=csv"]))
    elif command == "sample":
        seed = rng.choice((rng.randint(-3, 99), rng.randrange(2**70)))
        argv = [command, f"--qubits={rng.randint(0, 5)}", f"--count={rng.randint(-2, 20)}",
                f"--seed={seed}"]
    else:
        argv = [command] + rng.choice(([], ["--table"]))
        argv += rng.choice(([], [f"--level={rng.randint(-1, 5)}"]))
    out = rng.choice((None, None, None, "out.txt", "missing/out.txt"))
    return argv if out is None else argv + [f"--out={directory / out}"]


def _contract_run(argv, directory):
    # (exit code, argparse usage exit?, stdout, --out text or None, stderr)
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, usage = exc.code, True
    written = directory / "out.txt"
    text = written.read_text(encoding="utf-8") if written.exists() else None
    written.unlink(missing_ok=True)
    return code, usage, out.getvalue(), text, err.getvalue()


def test_cli_contract_digest_is_pinned(tmp_path):
    # sha256 over (argv, exit code, stdout, --out text) of 500 fixed command
    # lines, as the CLI answered them when each command caught its own errors.
    rng = random.Random(1414)
    digest = hashlib.sha256()
    commands, codes = set(), set()
    for _ in range(500):
        argv = _contract_argv(rng, tmp_path)
        code, usage, out, written, err = _contract_run(argv, tmp_path)
        if code in (1, 2, 3) and not usage:
            assert err.startswith("error: "), argv
        commands.add(argv[0])
        codes.add(code)
        argv = [arg.replace(str(tmp_path), "<dir>") for arg in argv]
        digest.update(repr((argv, code, out, written)).encode())
    assert commands == {"analyze", "verify-paper", "sample", "zero-divisors"}
    assert codes == {0, 1, 2, 4}
    assert digest.hexdigest() == "f828cc150999bf26bfa7b83e4810a70dea76beafe8947125016d0b6571dbbd8d"


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


@pytest.mark.parametrize("level, digest", [
    (0, "02a6919696dcc1f3d4d9939c7c48b4e77af16924a8452cdf7f824b781c5c695c"),
    (1, "8d75720013b24fb06585c0064ab4bede5dfe858ecbb922c070dab4579b7ae1fc"),
    (2, "f1c2c25a4312f60988785f0581aceef378808f5efb5c1ff86d5084a0d45fb36b"),
    (3, "1785c78b0491c2143dcdf6c4432f06f85ddeb8c2563d8dc8569ae7f9318064cc"),
])
def test_zero_divisor_table_output_is_pinned(capsys, level, digest):
    # sha256 of each lower-level table as read off the recursive product of
    # every pair of basis units; level 4 is pinned to the shipped CSV below.
    code, out, _ = _run(capsys, "zero-divisors", "--table", "--level", str(level))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_zero_divisor_level_needs_table(capsys):
    # --level picks the table's level; without --table it is a usage error,
    # and --table alone is the level-4 table.
    with pytest.raises(SystemExit) as exc:
        cli.main(["zero-divisors", "--level", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    # The usage line and the error are the subcommand's, as argparse's own are.
    assert err.startswith("usage: hopfq zero-divisors "), err
    assert "\nhopfq zero-divisors: error: --level applies only with --table\n" in err
    assert _run(capsys, "zero-divisors", "--table") == _run(
        capsys, "zero-divisors", "--table", "--level", "4"
    )


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
