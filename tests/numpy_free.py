"""The sign-table commands, `analyze` and `verify-paper` need no numpy, and
`sample` without it is a usage error.  From the repository root, with no
arguments, on any interpreter, numpy installed or not:

    PYTHONPATH=src python -W error tests/numpy_free.py

It prints nothing and exits 0 when every check holds.  The census, the
product table, `analyze` and `verify-paper`, their usage, input and write
errors run in this process, which must load no `numpy.*` module;
one `python -m hopfq.cli zero-divisors` child writes into /dev/full, where
that device exists.  The `verify-paper` tables must hash to VERIFY_DIGESTS,
which `tests/test_cli.py` pins on interpreters with numpy.  Last, `sample`
runs: without numpy it must write one error line and exit 2, with numpy its
table.  pytest does not collect this file: `tests/test_startup.py` runs it.
"""

import contextlib
import errno
import hashlib
import importlib.resources
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import types

import hopfq
import hopfq.cli

# sha256 of `hopfq verify-paper --format F` for each format F.
VERIFY_DIGESTS = {
    "text": "1f2d10ceedf00b2e7e91bd7c5d4e91a6cb91cbdc42d143218fe8385dfd5676f7",
    "csv": "e911f7391a5929a20a712708a4e3039150212106e1c718b9f0dc45d15feaebe1",
    "json": "e7f9317b721c40c769bad5b0804d70bf03f794b0f815f11d324dcf6bcde08b6a",
}


def run(argv):
    """(exit code, standard output, standard error) of the CLI in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hopfq.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_write_error(code, err):
    assert code == 2 and len(err.splitlines()) == 1, (code, err)
    assert err.startswith(f"error: cannot write standard output: [Errno {errno.ENOSPC}] "), err


def run_into_full_device(argv):
    """(exit code, standard error) of the CLI in this process, writing to /dev/full."""
    err = io.StringIO()
    with open("/dev/full", "w") as full, contextlib.redirect_stdout(full), \
            contextlib.redirect_stderr(err):
        code = hopfq.cli.main(argv)
    return code, err.getvalue()


def check_analyze():
    code, out, err = run(["analyze", "--state", "(|00> + |11>)/sqrt(2)"])
    assert (code, err) == (0, ""), (code, err)
    report = json.loads(out)
    assert report["n"] == 2 and report["separable"] == [False, False], report
    assert abs(report["e_complement"] - 1.0) < 1e-12 and abs(report["concurrence"] - 1.0) < 1e-12

    # A state file gives the report of its state, as text does.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bell.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(hopfq.state_to_json(hopfq.parse_state("(|00> + |11>)/sqrt(2)")))
        assert run(["analyze", "--state", path]) == (0, out, "")

    code, out, err = run(["analyze", "--state", "|0> + |1>", "--normalize", "--format", "csv"])
    assert (code, err) == (0, "") and out.startswith("field,value\nn,1\n"), (code, err, out)
    code, out, err = run(["analyze", "--state", "|001>", "--qubit", "2"])
    assert (code, err) == (0, ""), (code, err)
    assert json.loads(out)["amplitudes"][4] == [1.0, 0.0], out

    code, out, err = run(["analyze", "--state", "|00> + |1"])
    assert (code, out) == (1, "") and err.startswith("error: line 1, column 8: "), (code, err)
    code, out, err = run(["analyze", "--state", "|0> + |1>"])
    assert (code, out) == (2, "") and "pass normalize=True" in err, (code, err)


def check_verify_paper():
    for fmt, digest in VERIFY_DIGESTS.items():
        code, out, err = run(["verify-paper", "--format", fmt])
        assert (code, err) == (0, ""), (fmt, code, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    code, out, err = run(["verify-paper", "--strict"])
    assert (code, err) == (4, "") and out.endswith(" 4 mismatching (mismatches are reported, "
                                                   "never hidden)\n"), (code, err)


def check_sample():
    code, out, err = run(["sample", "--qubits", "2", "--count", "2"])
    if importlib.util.find_spec("numpy") is None:
        assert (code, out) == (2, "") and err == (
            "error: sample needs numpy, which is not installed\n"), (code, out, err)
    else:
        assert (code, err) == (0, "") and len(out.splitlines()) == 3, (code, out, err)


def main():
    # Importing the CLI runs the package's modules, each one its export.
    names = ("cdnum", "states", "braket", "fibration", "tangles", "reporting", "cli")
    assert all(f"hopfq.{name}" in sys.modules for name in names)
    for name in names:
        module = getattr(hopfq, name)
        assert isinstance(module, types.ModuleType) and sys.modules[f"hopfq.{name}"] is module

    code, census, err = run(["zero-divisors"])
    assert (code, err) == (0, "") and census.startswith("level 1 (complex): none\n"), (code, err)
    shipped = (importlib.resources.files("hopfq") / "data/basis_products_level4.csv").read_text()
    assert run(["zero-divisors", "--table", "--level", "4"]) == (0, shipped, "")
    assert run(["zero-divisors", "--table"]) == (0, shipped, "")
    assert run(["zero-divisors", "--table", "--level", "2"])[0] == 0
    assert len(hopfq.find_basis_zero_divisors(4)) == 336
    hopfq.basis_product_table(4)
    check_analyze()
    check_verify_paper()

    # The command's usage errors, `--level=--` whichever way argparse reads it.
    for argv in (["zero-divisors", "--level", "2"], ["zero-divisors", "--level=--"],
                 ["zero-divisors", "--table", "--level=--"]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), (argv, code, err)
        assert err.startswith("usage: hopfq zero-divisors"), (argv, err)

    if os.path.exists("/dev/full"):
        for argv in (["zero-divisors"], ["analyze", "--state", "|0>"]):
            assert_one_write_error(*run_into_full_device(argv))
        # The same in a fresh process on this source tree, its standard streams
        # buffered as in a plain shell.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hopfq.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            child = subprocess.run(
                [sys.executable, "-W", "error", "-m", "hopfq.cli", "zero-divisors"],
                env=env, stdout=full, stderr=subprocess.PIPE, timeout=60,
            )
        assert_one_write_error(child.returncode, child.stderr.decode(errors="replace"))

    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
    assert not loaded, loaded
    check_sample()


if __name__ == "__main__":
    main()
