#!/usr/bin/env python3
"""hopfq benchmark: the sample, analyze and cli workloads.

    python3 perfbench/run.py --workload {sample,analyze,cli,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; hopfq is imported from src/.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(BENCHMARK.json "end_to_end"); with --trace 1 they are the per-layer ones
("per_layer").  The lines before it give the provenance and a readable
summary, and the whole result is also written to .perfbench_out/.
--workload all runs every workload untraced and traced.  See NOTES.md.
"""

import argparse
import contextlib
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sample", "analyze", "cli")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_STARTS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SERIALIZERS = ("reporting.report_to_json", "reporting.report_to_csv", "reporting.rows_to_csv",
               "reporting.rows_to_json", "reporting.rows_to_text", "reporting.sample_table")
CLI_COMMANDS = ("analyze", "verify_paper", "zero_divisors", "product_table")
MAX_LOGGED_FAILURES = 5
# The speed factor (calibration.py) is measured again between ops once
# CALIBRATE_EVERY_S busy seconds have passed.  ops_per_s is the median over
# chunks of at least CHUNK_S busy seconds (whole rotations on cli), so a slow
# spell that covers less than half a run does not move it.
CALIBRATE_EVERY_S = 0.2
CHUNK_S = 1.0
# The CPUs this process may use before it pins itself.  run_all starts each
# workload from an unpinned process, so its children read the same count.
NPROC = len(os.sched_getaffinity(0))


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the one the calibration times."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cap_threads():
    """Cap BLAS/OpenMP threads of this process and its children at its CPU count.

    After pinning that count is 1, so every figure is single-CPU and
    single-thread by design: a gain that needs a second BLAS thread does not
    show on this benchmark.
    """
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Run:
    """What one measuring phase did: per-op latencies and counters.

    ``latencies`` are raw wall times.  ``scaled`` are the same times, each
    multiplied by the mean of the speed factors measured just before and just
    after its op (see calibration.py).  Per-op records are compact arrays, and
    the op tags the spans need are kept on traced runs only, so that the
    benchmark's own bookkeeping, which grows with the number of ops a run
    completes, stays out of peak_rss_mb.
    """

    def __init__(self, group):
        self.group = group
        self.latencies = array("d")
        self.op_units = array("q")
        self.kinds = []  # references to a few shared strings
        self.calibrations = []  # (index of the next op, speed factor)
        self.units = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.chars = 0
        self.op_tags = {}
        self.expected_errors = set()

    def finish(self):
        cal = self.calibrations
        self.scaled = array("d")
        j = 0
        for i, elapsed in enumerate(self.latencies):
            while j + 1 < len(cal) and cal[j + 1][0] <= i:
                j += 1
            after = cal[j + 1][1] if j + 1 < len(cal) else cal[j][1]
            self.scaled.append(elapsed * (cal[j][1] + after) / 2)

    def ops_per_s(self):
        """Median over chunks of units per scaled busy second."""
        rates, units, busy, scaled = [], 0, 0.0, 0.0
        for i, (elapsed, s, n) in enumerate(zip(self.latencies, self.scaled, self.op_units), 1):
            units += n
            busy += elapsed
            scaled += s
            if i % self.group == 0 and busy >= CHUNK_S:
                rates.append(units / scaled)
                units, busy, scaled = 0, 0.0, 0.0
        return statistics.median(rates) if rates else self.units / sum(self.scaled)

    def raw_ops_per_s(self):
        return self.units / self.busy_s


def run_checked(op, log):
    """Run and check one op; returns (ok, seconds, output bytes)."""
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception:  # an unexpected exception is a failed op, not a crash
        elapsed = perf_counter() - t0
        log(f"op {op.kind} raised:\n{traceback.format_exc()}")
        return False, elapsed, 0
    elapsed = perf_counter() - t0
    try:
        ok, nbytes = op.check(out)
    except Exception:  # malformed output
        log(f"check of op {op.kind} raised:\n{traceback.format_exc()}")
        return False, elapsed, 0
    if not ok:
        log(f"op {op.kind} failed its check")
    return ok, elapsed, nbytes


class FailureLog:
    def __init__(self):
        self.count = 0

    def __call__(self, message):
        self.count += 1
        if self.count <= MAX_LOGGED_FAILURES:
            print(message, file=sys.stderr)


def measure(ops, seconds, group, kernel, log, tracer=None, after=None):
    """Closed loop, one caller: run whole groups of ops until ``seconds`` pass (at least one).

    ``kernel`` names the calibration kernel that scales the op times.
    """
    import calibration

    run = Run(group)
    root_id = tracer.name_id("bench.op") if tracer else None
    since_calibration = 0.0
    deadline = perf_counter() + seconds
    for i, op in enumerate(ops):
        if i and i % group == 0 and perf_counter() >= deadline:
            break
        if not run.calibrations or since_calibration >= CALIBRATE_EVERY_S:
            run.calibrations.append((i, calibration.speed_factor(kernel)))
            since_calibration = 0.0
        if tracer:
            tracer.op = i
            span = tracer.open(root_id)
        ok, elapsed, nbytes = run_checked(op, log)
        if tracer:
            tracer.close(span)
            tracer.op = -1
        since_calibration += elapsed
        run.latencies.append(elapsed)
        run.op_units.append(op.units)
        run.kinds.append(op.kind)
        run.busy_s += elapsed
        run.units += op.units
        run.attempted += 1
        run.failed += not ok
        run.out_bytes += nbytes
        run.chars += op.chars
        if tracer and op.tag is not None:
            run.op_tags[i] = op.tag
        if tracer and op.expected_error_layer:
            run.expected_errors.add((i, op.expected_error_layer))
        if after:
            after()
    run.calibrations.append((len(run.latencies), calibration.speed_factor(kernel)))
    run.finish()
    return run


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def setup_times(workload, seed, env, workdir):
    """Scaled wall time of SETUP_STARTS fresh starts: (median, raw median, failed starts)."""
    import calibration

    if workload == "cli":
        cmd = [sys.executable, "-c", "import hopfq.cli"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), workdir]
    times, scaled, failed = [], [], 0
    for _ in range(SETUP_STARTS):
        factor = calibration.speed_factor("startup")
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(perf_counter() - t0)
        scaled.append(times[-1] * factor)
        if proc.returncode != 0:
            failed += 1
            print(proc.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
    return statistics.median(scaled), statistics.median(times), failed


def end_to_end(run, setup_s, rss_kb):
    ms = [t * 1e3 for t in run.scaled]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(run.ops_per_s(), "1/s"),
        "latency_p50_ms": metric(percentile(ms, 50), "ms"),
        "latency_p90_ms": metric(percentile(ms, 90), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "success_rate": metric((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def raw_figures(run, raw_setup_s):
    """The end-to-end timings before scaling by the speed factor."""
    ms = [t * 1e3 for t in run.latencies]
    return {"setup_s": raw_setup_s, "ops_per_s": run.raw_ops_per_s(),
            "latency_p50_ms": percentile(ms, 50), "latency_p90_ms": percentile(ms, 90),
            "mean_speed_factor": sum(run.scaled) / run.busy_s}


def command_ms(run):
    """Median scaled wall time of each CLI command kind, in ms."""
    by_kind = {}
    for kind, scaled in zip(run.kinds, run.scaled):
        if kind in CLI_COMMANDS:
            by_kind.setdefault(kind, []).append(scaled)
    return {kind: 1e3 * statistics.median(times) for kind, times in by_kind.items()}


def per_layer(stats, counts, units, wall_s, chars, out_bytes, once, cmd_ms, overhead):
    """Per-layer metrics from summarized spans.  A layer that did no work reads 0."""
    from spans import HOPFQ_MODULES, Stat, layer_of

    empty = Stat()

    def stat(name):
        return stats.get(name, empty)

    def self_us(name):
        st = stat(name)
        return 1e6 * st.layer_self_s / st.calls if st.calls else 0.0

    layer_self = dict.fromkeys(HOPFQ_MODULES, 0.0)
    entries = dict.fromkeys(HOPFQ_MODULES, 0)
    errors = dict.fromkeys(HOPFQ_MODULES, 0)
    traced_self = 0.0
    for name, st in stats.items():
        if "@" in name:
            continue
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += st.self_s
            entries[layer] += st.entries
            errors[layer] += st.errors
        if layer != "bench":
            traced_self += st.self_s
    parse_s = sum(stat(f"braket.parse_state@n{n}").layer_self_s for n in range(1, 5))

    m = {
        "hopfq.import_s": metric(once.get("import_s", 0.0), "s"),
        "cdnum.table_build_s": metric(once.get("table_build_s", 0.0), "s"),
        "cdnum.census_s": metric(once.get("census_s", 0.0), "s"),
        "cdnum.cd_mul.calls_per_op": metric(stat("cdnum.cd_mul").calls / units, "count"),
        "cdnum.cd_mul.self_us": metric(self_us("cdnum.cd_mul"), "us"),
        "cdnum.elements_per_op": metric(counts["CDElement"] / units, "count"),
        "cdnum.self_share": metric(layer_self["cdnum"] / wall_s, "ratio"),
        "states.random_state.self_us": metric(self_us("states.random_state"), "us"),
        "states.encode_pair.self_us": metric(self_us("states.encode_pair"), "us"),
        "states.states_per_op": metric(counts["QubitState"] / units, "count"),
    }
    for n in range(1, 5):
        m[f"braket.parse_state.self_us.n{n}"] = metric(self_us(f"braket.parse_state@n{n}"), "us")
    m.update({
        "braket.chars_per_s": metric(chars / parse_s if parse_s else 0.0, "1/s"),
        "braket.format_state.self_us": metric(self_us("braket.format_state"), "us"),
        "braket.self_share": metric(layer_self["braket"] / wall_s, "ratio"),
        "fibration.base_coordinates.calls_per_op":
            metric(stat("fibration.base_coordinates").calls / units, "count"),
        "fibration.base_coordinates.self_us": metric(self_us("fibration.base_coordinates"), "us"),
        "tangles.calls_per_op": metric(entries["tangles"] / units, "count"),
        "tangles.self_us_per_op": metric(1e6 * layer_self["tangles"] / units, "us"),
        "reporting.serialize_us_per_op":
            metric(1e6 * sum(stat(s).self_s for s in SERIALIZERS) / units, "us"),
        "reporting.output_bytes_per_op": metric(out_bytes / units, "bytes"),
        "cli.main.self_ms": metric(self_us("cli.main") / 1e3, "ms"),
    })
    for layer in HOPFQ_MODULES:
        m[f"{layer}.errors"] = metric(errors[layer], "count")
    for kind in CLI_COMMANDS:
        m[f"cli.cmd_{kind}_ms"] = metric(cmd_ms.get(kind, 0.0), "ms")
    m["trace.overhead"] = metric(overhead, "ratio")
    m["trace.self_coverage"] = metric(traced_self / wall_s, "ratio")
    return m


class InProcessSpans:
    """Spans of an in-process workload, recorded by one tracer in this process."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, import_started, import_s):
        import spans

        self.tracer = spans.Tracer()
        self.tracer.add("hopfq.import", import_started, import_started + import_s)
        self.import_s = import_s

    @contextlib.contextmanager
    def warmup(self, trace):
        # Traced, the warm-up's first level-4 product is the table build.
        if trace:
            self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def traced(self, wl, seed, seconds, log):
        import spans

        self.tracer.install()
        try:
            run = measure(wl.ops(seed), seconds, wl.group, wl.kernel, log, tracer=self.tracer)
        finally:
            self.tracer.uninstall()
        stats, first_level4 = spans.summarize(self.tracer, run.op_tags, run.expected_errors)
        once = {"import_s": self.import_s}
        if first_level4 is not None:
            once["table_build_s"] = first_level4
        return run, stats, self.tracer.counts, once


def merge_stats(total, stats):
    for key, st in stats.items():
        acc = total.get(key)
        if acc is None:
            total[key] = st
            continue
        for field in st.__slots__:
            setattr(acc, field, getattr(acc, field) + getattr(st, field))


class CommandSpans:
    """Spans of the cli workload: each command process (launcher.py) writes
    its spans to a file, read back after the command."""

    rusage = resource.RUSAGE_CHILDREN  # the largest command process

    def __init__(self, env, workdir):
        self.env = env
        self.path = os.path.join(workdir, "spans.bin")

    def warmup(self, trace):
        return contextlib.nullcontext()

    def traced(self, wl, seed, seconds, log):
        import spans
        import workloads

        stats, counts = {}, {"CDElement": 0, "QubitState": 0}
        per_command = {"import_s": [], "table_build_s": [], "census_s": []}

        def collect():
            if not os.path.exists(self.path):
                return
            tracer = spans.Tracer.load(self.path)
            os.remove(self.path)
            cmd_stats, first_level4 = spans.summarize(tracer)
            merge_stats(stats, cmd_stats)
            for key in counts:
                counts[key] += tracer.counts[key]
            per_command["import_s"].append(cmd_stats["hopfq.import"].self_s)
            if first_level4 is not None:
                per_command["table_build_s"].append(first_level4)
            census = cmd_stats.get("cdnum.find_basis_zero_divisors")
            if census is not None:
                per_command["census_s"].append(census.layer_self_s)

        cli = workloads.Cli(ROOT, self.env, spans_path=self.path)
        run = measure(cli.ops(seed), seconds, cli.group, cli.kernel, log, after=collect)
        once = {k: statistics.median(v) for k, v in per_command.items() if v}
        return run, stats, counts, once


def run_workload(args, log, workdir, wl, source):
    """Set-up starts and an untraced measure; traced, a second measure with spans.

    ``source`` (InProcessSpans or CommandSpans) says how spans are collected
    and whose peak RSS counts.
    """
    totals = {"attempted": 0, "failed": 0}
    if not args.trace:
        setup_s, raw_setup_s, setup_failed = setup_times(args.workload, args.seed, child_env(),
                                                         workdir)
        totals["attempted"] += setup_failed
        totals["failed"] += setup_failed
    with source.warmup(args.trace):
        for op in wl.warmups(args.seed):
            ok, _, _ = run_checked(op, log)
            totals["attempted"] += 1
            totals["failed"] += not ok

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(wl.ops(args.seed), seconds, wl.group, wl.kernel, log)
    runs = [untraced]
    cmd_ms = command_ms(untraced)
    extra = {"cmd_ms": cmd_ms} if cmd_ms else {}
    if not args.trace:
        metrics = end_to_end(untraced, setup_s, resource.getrusage(source.rusage).ru_maxrss)
        extra["raw"] = raw_figures(untraced, raw_setup_s)
    else:
        traced, stats, counts, once = source.traced(wl, args.seed, seconds, log)
        runs.append(traced)
        metrics = per_layer(stats, counts, traced.units, traced.busy_s, traced.chars,
                            traced.out_bytes, once, cmd_ms,
                            traced.ops_per_s() / untraced.ops_per_s())
    for run in runs:
        totals["attempted"] += run.attempted
        totals["failed"] += run.failed
    return metrics, totals, runs, extra


def known_defects():
    """Probe the program defects known at the commit that added this benchmark.

    A workload holds only ops that pass, so a known defect is not one of its
    ops.  It is probed here instead, once per run and outside the measured
    ops, and reported in the summary, in the saved result and, traced, as the
    per-layer metric cli.verify_paper_csv_defect.  True means still present.
    """
    import oracles

    # rows_to_csv leaves the labels unquoted: the "Phi2 (4 qubits, ...)" rows
    # read as 8 fields against the 7-field header.
    proc = subprocess.run([sys.executable, "-m", "hopfq.cli", "verify-paper", "--format", "csv"],
                          cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
    try:
        ok = proc.returncode == 0 and oracles.check_verify_paper_csv(proc.stdout.decode())
    except (UnicodeDecodeError, csv.Error):
        ok = False
    return {"verify_paper_csv": not ok}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    # The ceiling keeps git from taking the commit of a repository above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    import calibration
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "calibration_reference_s": calibration.REFERENCE_S,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "run_sizes": {
            "setup_starts": SETUP_STARTS,
            "sample_batch": workloads.SAMPLE_BATCH,
            "sample_qubit_block": workloads.SAMPLE_BLOCK,
            "analyze_qubit_weights": dict(zip(workloads.ANALYZE_QUBITS,
                                              workloads.ANALYZE_WEIGHTS)),
            "analyze_kind_weights": dict(zip(workloads.ANALYZE_KINDS,
                                             workloads.ANALYZE_KIND_WEIGHTS)),
            "traced_phase_seconds": args.seconds / 2 if args.trace else None,
        },
    }


def summary_lines(args, metrics, totals, runs, extra):
    lines = [f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
             f"{totals['attempted']} ops attempted, {totals['failed']} failed "
             f"(fail_rate {totals['failed'] / totals['attempted']:.4g})"]
    for run, label in zip(runs, ("untraced", "traced")):
        lines.append(f"#   {label}: {run.attempted} ops, {run.units} units, "
                     f"{len(run.latencies)} latency samples, busy {run.busy_s:.3f} s")
    for kind, ms in extra.get("cmd_ms", {}).items():
        lines.append(f"#   cmd_{kind}_ms  {ms:.6g} ms (p50, scaled)")
    for name, value in extra.get("raw", {}).items():
        lines.append(f"#   raw {name}  {value:.6g}")
    for name, present in extra.get("known_defects", {}).items():
        lines.append(f"#   known defect {name}: {'still present' if present else 'not seen'}")
    for name, m in metrics.items():
        lines.append(f"#   {name}  {m['value']:.6g} {m['unit']}")
    return lines


def run_one(args):
    log = FailureLog()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    sys.path.insert(0, SRC)
    try:
        if args.workload == "cli":
            import workloads

            env = child_env()
            wl = workloads.Cli(ROOT, env)
            source = CommandSpans(env, workdir)
        else:
            # hopfq is the first import that loads numpy, so import_s includes
            # numpy, as it does for a user.
            t0 = perf_counter()
            import hopfq
            import hopfq.cli

            import_s = perf_counter() - t0
            import workloads

            wl = workloads.IN_PROCESS[args.workload](hopfq, workdir)
            source = InProcessSpans(t0, import_s)
        metrics, totals, runs, extra = run_workload(args, log, workdir, wl, source)
        extra["known_defects"] = known_defects()
        if args.trace:
            metrics["cli.verify_paper_csv_defect"] = metric(
                extra["known_defects"]["verify_paper_csv"], "count")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance(args)
    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, provenance=prov, **extra), fh, indent=2)
    print("# provenance " + json.dumps(prov))
    print("\n".join(summary_lines(args, metrics, totals, runs, extra)))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "hopfq", "__init__.py")):
        print(f"error: no hopfq package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    cap_threads()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
