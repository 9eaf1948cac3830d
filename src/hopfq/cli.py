"""Command-line interface.

Subcommands:

    analyze        full entanglement/geometry report for one state
    verify-paper   the published-example conformance table
    sample         CSV of measures over Haar-random states (fixed seed)
    zero-divisors  basis zero-divisor census and the basis product table

Output goes to standard output or --out; error lines go only to standard error.
Exit codes: 0 success, 1 parse error, 2 usage error, invalid input or state, or
unwritable output, 3 numeric failure, 4 mismatch under --strict.
"""

import argparse
import contextlib
import errno
import os
import sys

# Modules, not names: each runs on its first use, so a command loads only
# what it calls (only sample imports numpy).
from . import braket, cdnum, reporting, states

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_STATE = 2
EXIT_NUMERIC = 3
EXIT_STRICT = 4


def _write(stream, chunks):
    """The one writer to a standard stream.  None (a closed descriptor) fails with EBADF;
    a failed stream's descriptor, if any, then points at os.devnull for the exit flush."""
    try:
        if stream is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        stream.writelines(chunks)
        stream.flush()
    except OSError:
        with contextlib.suppress(AttributeError, OSError):  # None and io.StringIO have none
            fd = stream.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        raise


def _fail(message, code):
    """The one writer of an error line, to standard error; returns code."""
    with contextlib.suppress(OSError):  # closed, or the pipe standard output failed on
        _write(sys.stderr, [f"error: {message}\n"])
    return code


def cmd_analyze(args):
    # A --state value is a file path when one exists, bra-ket text otherwise.
    load = states.read_state_file if os.path.isfile(args.state) else braket.parse_state
    report = reporting.analyze_state(load(args.state, normalize=args.normalize), qubit=args.qubit)
    write = reporting.report_to_csv if args.format == "csv" else reporting.report_to_json
    return [write(report)], EXIT_OK


def cmd_verify_paper(args):
    rows = reporting.conformance_rows()
    write = {"text": reporting.rows_to_text, "json": reporting.rows_to_json,
             "csv": reporting.rows_to_csv}[args.format]
    mismatch = args.strict and any(not r.match for r in rows)
    return [write(rows)], EXIT_STRICT if mismatch else EXIT_OK


def cmd_sample(args):
    if args.count < 1:
        raise states.StateError("--count must be at least 1")
    return reporting.sample_rows(args.qubits, args.count, args.seed), EXIT_OK


def _format_pair(pair):
    (a, s1, b), (c, s2, d) = pair
    lhs = f"(i{a} {'+' if s1 > 0 else '-'} i{b})"
    rhs = f"(i{c} {'+' if s2 > 0 else '-'} i{d})"
    return f"{lhs} * {rhs} = 0"


def cmd_zero_divisors(args):
    if args.table:
        level = cdnum.MAX_LEVEL if args.level is None else args.level
        rows = cdnum.basis_product_table(level)
        lines = ["a,b,sign,index"]
        lines += [f"{a},{b},{'+' if s > 0 else '-'},{k}" for a, b, s, k in rows]
        return ["\n".join(lines) + "\n"], EXIT_OK
    lines = []
    for level in range(1, cdnum.MAX_LEVEL + 1):
        pairs = cdnum.find_basis_zero_divisors(level)
        name = cdnum.LEVEL_NAMES[level]
        if not pairs:
            lines.append(f"level {level} ({name}): none")
        else:
            lines.append(f"level {level} ({name}): {len(pairs)} two-term basis zero-divisor pairs")
            lines += ["  " + _format_pair(p) for p in pairs]
    return ["\n".join(lines) + "\n"], EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfq",
        description="Geometric entanglement analysis of 1-4 qubit pure states "
        "via Cayley-Dickson pair encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write to this path instead of standard output")

    p = sub.add_parser("analyze", help="analyze one state", parents=[out])
    p.add_argument("--state", required=True,
                   help="bra-ket expression, e.g. '(|00>+|11>)/sqrt(2)', or a state-file path")
    p.add_argument("--qubit", type=int, default=0, help="qubit to bring into the leading role")
    p.add_argument("--normalize", action="store_true", help="rescale input to unit norm")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("verify-paper", help="published-example conformance table", parents=[out])
    p.add_argument("--strict", action="store_true", help="exit 4 if any row mismatches")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_verify_paper, parser=p)

    p = sub.add_parser("sample", help="measure statistics over random states", parents=[out])
    p.add_argument("--qubits", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample, parser=p)

    p = sub.add_parser("zero-divisors", help="zero-divisor census / product table", parents=[out])
    p.add_argument("--table", action="store_true", help="emit the basis product table as CSV")
    p.add_argument("--level", type=int, choices=range(cdnum.MAX_LEVEL + 1),
                   help=f"algebra level for --table (default {cdnum.MAX_LEVEL})")
    p.set_defaults(func=cmd_zero_divisors, parser=p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Some Pythons' argparse drop `--` as the value in `--name=--` and store
    # [], past type= and choices=.  No option takes nargs, so [] is only that.
    # It and a --level without --table are the command's usage errors, so the
    # command's own parser reports them, as argparse reports its own.
    for name in [key for key, value in vars(args).items() if value == []]:
        args.parser.error(f"argument --{name}: expected one argument")
    if args.func is cmd_zero_divisors and args.level is not None and not args.table:
        args.parser.error("--level applies only with --table")
    # The one place output is written and an error becomes its exit code.  An
    # except clause's class is read only when an exception reaches it, so
    # OSError comes first, so a census whose write fails loads no braket and no numpy.
    # Only writes raise OSError here; read_state_file makes its own StateError.
    try:
        chunks, code = args.func(args)
        if args.out is None:
            _write(sys.stdout, chunks)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        return code
    except OSError as exc:
        where = "standard output" if args.out is None else args.out
        return _fail(f"cannot write {where}: {exc}", EXIT_STATE)
    except braket.ParseError as exc:
        return _fail(exc, EXIT_PARSE)
    except states.StateError as exc:
        return _fail(exc, EXIT_STATE)
    except ArithmeticError as exc:
        return _fail(f"numeric failure: {exc}", EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
