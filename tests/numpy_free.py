"""The sign-table commands need no numpy.  From the repository root, with no
arguments, on any interpreter, numpy installed or not:

    PYTHONPATH=src python -W error tests/numpy_free.py

It prints nothing and exits 0 when every check holds.  The census, the
product table and their usage and write errors run in this process, which
must end with no `numpy.*` module loaded; one `python -m hopfq.cli
zero-divisors` child writes into /dev/full, where that device exists.
pytest does not collect this file: `tests/test_startup.py` runs it.
"""

import contextlib
import errno
import importlib.resources
import io
import os
import subprocess
import sys
import types

import hopfq
import hopfq.cli


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

    # The command's usage errors, `--level=--` whichever way argparse reads it.
    for argv in (["zero-divisors", "--level", "2"], ["zero-divisors", "--level=--"],
                 ["zero-divisors", "--table", "--level=--"]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), (argv, code, err)
        assert err.startswith("usage: hopfq zero-divisors"), (argv, err)

    if os.path.exists("/dev/full"):
        err = io.StringIO()
        with open("/dev/full", "w") as full, contextlib.redirect_stdout(full), \
                contextlib.redirect_stderr(err):
            code = hopfq.cli.main(["zero-divisors"])
        assert_one_write_error(code, err.getvalue())
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


if __name__ == "__main__":
    main()
