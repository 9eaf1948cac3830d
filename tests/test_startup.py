"""What importing the package loads: the submodules run on first use, and the
sign-table commands, analyze and verify-paper never import numpy."""

import os
import pathlib
import subprocess
import sys

import pytest

import hopfq

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Several threads make the first reads of the package at once: numpy and the
# submodules must finish loading before any of them is read from.
THREADS = """
import threading
import hopfq

reads = (
    lambda: hopfq.cd_mul(hopfq.basis(4, 1), hopfq.basis(4, 2)),
    lambda: hopfq.random_state(4, seed=1),
    lambda: hopfq.ghz_state(3),
    lambda: hopfq.cdnum.np.zeros(2),
    lambda: hopfq.base_coordinates(hopfq.ghz_state(4)),
    lambda: hopfq.parse_state("|01> + |10>", normalize=True),
)
barrier = threading.Barrier(len(reads))
errors = []

def first_read(read):
    barrier.wait()
    try:
        read()
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_read, args=(read,)) for read in reads]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert not errors, errors
"""

# Listing the package runs no submodule, and a reload of the package, before
# or after its submodules run, leaves every export readable.
RELOAD = """
import importlib, sys, types
import hopfq

subs = ("cdnum", "states", "braket", "fibration", "tangles", "reporting")
listed = dir(hopfq)
assert set(hopfq.__all__) <= set(listed) and set(subs) <= set(listed), listed
assert all(type(sys.modules[f"hopfq.{sub}"]) is not types.ModuleType for sub in subs)
assert not any(m.split(".")[0] == "numpy" for m in sys.modules)

importlib.reload(hopfq)
assert len(hopfq.find_basis_zero_divisors(4)) == 336
assert not any(m.split(".")[0] == "numpy" for m in sys.modules)
assert all(sys.modules[f"hopfq.{sub}"] is getattr(hopfq, sub) for sub in subs)
for name in hopfq.__all__:
    getattr(hopfq, name)
assert hopfq.ghz_state(3).n == 3

importlib.reload(hopfq)
assert all(sys.modules[f"hopfq.{sub}"] is getattr(hopfq, sub) for sub in subs)
for name in hopfq.__all__:
    getattr(hopfq, name)
assert hopfq.cd_mul is hopfq.cdnum.cd_mul and hopfq.ghz_state(4).n == 4
"""


def _run(*args):
    # A fresh interpreter with warnings as errors, on this source tree.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], env=env, capture_output=True, timeout=60
    )


def test_census_and_table_run_without_numpy():
    # The script CI's numpy-free job runs, here on an interpreter with numpy:
    # the census, the table, analyze and verify-paper.
    result = _run(str(ROOT / "tests" / "numpy_free.py"))
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert (result.stdout, result.stderr) == (b"", b"")


def test_exports_follow_their_submodule(monkeypatch):
    # Each exported function or class is the one its defining module holds.
    for name in hopfq.__all__:
        value = getattr(hopfq, name)
        home = getattr(value, "__module__", None)
        if home is not None:
            assert getattr(sys.modules[home], name) is value
    assert hopfq.MAX_LEVEL is hopfq.cdnum.MAX_LEVEL
    assert hopfq.MAX_QUBITS is hopfq.states.MAX_QUBITS
    marker = object()
    monkeypatch.setattr(hopfq.reporting, "analyze_state", marker)
    assert hopfq.analyze_state is marker
    monkeypatch.setattr(hopfq.cdnum, "cd_mul", marker)
    assert hopfq.cd_mul is marker


def test_first_reads_from_several_threads():
    for _ in range(3):
        result = _run("-c", THREADS)
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        assert result.stderr == b""


def test_listing_and_reloading_the_package():
    result = _run("-c", RELOAD)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stderr == b""


def test_failed_load_runs_again(tmp_path, monkeypatch):
    # The module raises until a marker file exists: each read before that
    # raises its error again, and the first read after it loads the module.
    name = "hopfq_lazy_probe"
    (tmp_path / f"{name}.py").write_text(
        "import os\n"
        "value = 1\n"
        "if not os.path.exists(__file__ + '.ok'):\n"
        "    raise ImportError('first load fails')\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = hopfq._lazy(name)
        for _ in range(2):
            with pytest.raises(ImportError, match="first load fails"):
                module.value
        (tmp_path / f"{name}.py.ok").touch()
        assert module.value == 1
        assert sys.modules[name] is module
    finally:
        sys.modules.pop(name, None)
