"""The three workloads: seeded op generators and the checks of each op.

An op's ``run`` is the timed call into hopfq; ``check`` is the untimed
verification of what it returned and gives (ok, output bytes).  Ops look up
hopfq functions on their modules at call time, so the traced run sees them
through the tracer's wrappers.
"""

import os
import subprocess
import sys
from time import perf_counter

import numpy as np

import oracles

# A measured batch is 10**4 states, the smaller of the two sizes the ROADMAP
# names for `sample` traffic (10**4 and 10**5): the output CSV (about 0.9 MB at
# n = 4) is large enough for a whole-string versus streamed writer to show in
# peak_rss_mb, fixed per-call costs such as argparse are under 0.1% of a batch,
# and a 30-second run still holds a dozen or more batches for p50 and p90.
# Warm-ups use a small batch: they only need each code path run once.
SAMPLE_BATCH = 10_000
SAMPLE_WARMUP_BATCH = 100
SAMPLE_QUBITS = (2, 3, 4)
# Batches come in blocks of ten, each block a seeded shuffle of these qubit
# counts.  With a dozen or more batches per run, random weights let the share
# of 4-qubit batches fall below one half in some runs and move the p50 onto
# the faster 3-qubit batches; fixed blocks keep p50 and p90 inside the
# 4-qubit batches on every seed.
SAMPLE_BLOCK = (2, 3, 4, 4, 4, 4, 4, 4, 4, 4)

ANALYZE_QUBITS = (1, 2, 3, 4)
ANALYZE_WEIGHTS = (0.1, 0.2, 0.3, 0.4)
ANALYZE_KINDS = ("plain", "normalize", "json", "roundtrip", "corrupt")
ANALYZE_KIND_WEIGHTS = (0.8, 0.05, 0.05, 0.05, 0.05)

CLI_TIMEOUT_S = 150
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


class Op:
    """One timed request.  ``units`` counts states (sample) or requests."""

    __slots__ = ("kind", "run", "check", "units", "tag", "chars", "expected_error_layer")

    def __init__(self, kind, run, check, units=1, tag=None, chars=0, expected_error_layer=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.units = units
        self.tag = tag
        self.chars = chars
        self.expected_error_layer = expected_error_layer


class Sample:
    """`hopfq sample` batches through hopfq.cli.main, in process."""

    name = "sample"
    group = 1
    kernel = "library"  # calibration kernel

    def __init__(self, hopfq, workdir):
        self.cli = hopfq.cli
        self.out = os.path.join(workdir, "sample.csv")

    def _op(self, n, seed, count):
        argv = ["sample", "--qubits", str(n), "--count", str(count),
                "--seed", str(seed), "--out", self.out]

        def check(rc):
            with open(self.out, encoding="utf-8") as fh:
                ok = rc == 0 and oracles.check_sample_csv(fh, n, count, seed)
            return ok, os.path.getsize(self.out)  # ASCII: bytes = characters

        return Op(f"n{n}", lambda: self.cli.main(argv), check, units=count)

    def ops(self, seed):
        rng = np.random.default_rng([seed, 1])
        while True:
            for n in rng.permutation(SAMPLE_BLOCK):
                yield self._op(int(n), int(rng.integers(2**31)), SAMPLE_BATCH)

    def warmups(self, seed):
        return [self._op(n, seed, SAMPLE_WARMUP_BATCH) for n in SAMPLE_QUBITS]


class Analyze:
    """One state per request: parse -> analyze_state -> JSON or CSV report."""

    name = "analyze"
    group = 1
    kernel = "library"

    def __init__(self, hopfq, workdir):
        self.braket = hopfq.braket
        self.states = hopfq.states
        self.reporting = hopfq.reporting

    def _serialize(self, report, fmt):
        if fmt == "json":
            return self.reporting.report_to_json(report)
        return self.reporting.report_to_csv(report)

    def _op(self, kind, n, amps, qubit, fmt, rng):
        braket, states, reporting = self.braket, self.states, self.reporting
        text = oracles.braket_text(amps)
        if kind == "plain":
            def parse():
                return braket.parse_state(text)
        elif kind == "normalize":
            text = oracles.braket_text(amps * 10.0 ** rng.uniform(-3, 3))

            def parse():
                return braket.parse_state(text, normalize=True)
        elif kind == "json":
            doc = oracles.state_json(amps)

            def parse():
                return states.state_from_json(doc)
        elif kind == "roundtrip":
            def parse():
                again = braket.format_state(braket.parse_state(text))
                return braket.parse_state(again)
        else:
            bad, col = oracles.corrupt(text, rng)

            def run():
                try:
                    braket.parse_state(bad)
                except braket.ParseError as exc:
                    return exc
                return None

            def check(exc):
                ok = isinstance(exc, braket.ParseError) and exc.line == 1 and 1 <= exc.col <= col
                return ok, 0

            return Op(kind, run, check, tag=kind, expected_error_layer="braket")

        def run():
            return self._serialize(reporting.analyze_state(parse(), qubit=qubit), fmt)

        def check(out):
            return oracles.check_report(out, fmt, amps, qubit), len(out)

        # parse_state timings by n and chars_per_s come from plain requests only.
        if kind == "plain":
            return Op(kind, run, check, tag=f"n{n}", chars=len(text))
        return Op(kind, run, check, tag=kind)

    def ops(self, seed):
        rng = np.random.default_rng([seed, 2])
        while True:
            kind = ANALYZE_KINDS[int(rng.choice(len(ANALYZE_KINDS), p=ANALYZE_KIND_WEIGHTS))]
            n = int(rng.choice(ANALYZE_QUBITS, p=ANALYZE_WEIGHTS))
            amps = oracles.random_amplitudes(rng, n)
            qubit = int(rng.integers(n))
            fmt = "json" if rng.random() < 0.5 else "csv"
            yield self._op(kind, n, amps, qubit, fmt, rng)

    def warmups(self, seed):
        rng = np.random.default_rng([seed, 3])
        return [
            self._op(kind, 4, oracles.random_amplitudes(rng, 4), 1, fmt, rng)
            for kind in ANALYZE_KINDS
            for fmt in ("json", "csv")
        ]


class Cli:
    """One fresh `python -m hopfq.cli` process per command, in a fixed rotation."""

    name = "cli"
    group = 4  # measure whole rotations only
    kernel = "startup"

    def __init__(self, root, env, spans_path=None):
        self.root = root
        self.env = env
        # The traced run starts each command through the benchmark's launcher,
        # which writes the command's spans to spans_path.
        self.spans_path = spans_path
        with open(os.path.join(root, "src", "hopfq", "data", "basis_products_level4.csv"),
                  "rb") as fh:
            self.table = fh.read()

    def _op(self, kind, argv, check):
        def run():
            if self.spans_path is None:
                prefix = [sys.executable, "-m", "hopfq.cli"]
            else:
                prefix = [sys.executable, LAUNCHER, self.spans_path, repr(perf_counter())]
            return subprocess.run(
                prefix + argv, cwd=self.root, env=self.env, capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )

        def checked(proc):
            if proc.returncode != 0:
                return False, len(proc.stdout)
            return check(proc.stdout), len(proc.stdout)

        return Op(kind, run, checked)

    def ops(self, seed):
        rng = np.random.default_rng([seed, 4])
        while True:
            amps = oracles.random_amplitudes(rng, 4)
            yield self._op(
                "analyze", ["analyze", "--state", oracles.braket_text(amps)],
                lambda out, amps=amps: oracles.check_report(out.decode(), "json", amps, 0),
            )
            # JSON, not CSV: the CSV form has a known defect, which run.py
            # probes apart from the measured ops (see NOTES.md).
            yield self._op("verify_paper", ["verify-paper", "--format", "json"],
                           lambda out: oracles.check_verify_paper_json(out.decode()))
            yield self._op("zero_divisors", ["zero-divisors"],
                           lambda out: oracles.check_census(out.decode()))
            yield self._op("product_table", ["zero-divisors", "--table", "--level", "4"],
                           lambda out: out == self.table)

    def warmups(self, seed):
        return []  # every command is a fresh process: nothing to warm


IN_PROCESS = {"sample": Sample, "analyze": Analyze}
