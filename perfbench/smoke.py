#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark (about a minute; not part of the test suite).

    python3 perfbench/smoke.py

Runs every workload untraced and traced for one second, and checks the
result line against BENCHMARK.json: the keys, every metric name with its
unit, no failed op on any workload, and the known-defect probe's line.  It
also checks that the benchmark refuses to run, with a non-zero exit and no
result line, in a directory holding only BENCHMARK.json and the benchmark
itself.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace, proc):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}")
    if result["attempted"] < 1:
        problems.append("no op attempted")
    if result["failed"] or not result["correct"]:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    if "#   known defect verify_paper_csv: " not in proc.stdout:
        problems.append("no line from the known-defect probe")
    return problems


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sample", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"{workload} trace {trace}: {'ok' if not problems else problems}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"bare directory: {'ok' if not problems else problems}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
