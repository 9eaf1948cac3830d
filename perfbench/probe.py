"""One fresh start of an in-process workload, for the benchmark's setup_s.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Imports hopfq and runs one warm-up op per request kind, checking each; exits
1 if a check fails.  run.py times this whole process from spawn to exit.
"""

import sys


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import hopfq
    import hopfq.cli

    import workloads

    wl = workloads.IN_PROCESS[workload](hopfq, workdir)
    failed = 0
    for op in wl.warmups(seed):
        ok, _ = op.check(op.run())
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
