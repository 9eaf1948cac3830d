import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's standard output (UTF-8); a change to what a demo
# prints, on purpose or not, shows here.
STDOUT_SHA256 = {
    "ball_map.py": "73d04c2aa080797b77da22dfd5fb3fcdf201ac97d2a58f65399642cfc184d9ab",
    "cayley_dickson_tour.py": "6911127a0064035f29fe82923ee7c7dbf8be8cf79dbcc85128a1bb341f96ae1c",
    "entanglement_audit.py": "15744bfcd52c217ec974016478e7c13090bec8673a6ec0815ce32643e9d03867",
    "hopf_coordinates.py": "da279746b0c734e2e41af45d2a986f973c6482aa897494ba46015a5b5a89844a",
    "state_language.py": "e9247fa4c2a8afe629ef165758c8602da5646a213ef33ff80920871964083043",
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    result = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[path.name]
