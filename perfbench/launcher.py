"""Run one hopfq CLI command with the benchmark's tracer installed.

    python3 perfbench/launcher.py SPANS_FILE SPAWNED_AT ARGV...

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so interpreter start-up is
recorded as the span ``python.startup``.  ``import hopfq.cli`` is recorded as
``hopfq.import``.  The spans are written to SPANS_FILE when the command ends.
"""

import sys
from time import perf_counter

import spans


def main():
    spans_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.op = 0
    started = perf_counter()
    tracer.add("python.startup", spawned_at, started)
    idx = tracer.open(tracer.name_id("hopfq.import"))
    import hopfq.cli

    tracer.close(idx)
    tracer.install()
    try:
        return hopfq.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
