"""Command-line front end: single runs, exhaustive sweeps, and the
fixture/closed-form verification commands.

Exit codes: 0 success, 1 usage or input error, 2 unsupported modulus,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import subroutines
from .fixtures import STAGES, STATE_TABLE_ORDER, load_gram, load_state_table
from .hamming_mod import UnsupportedModulus, factor_split, query_bound
from .linalg import format_state_table
from .polymethod import DomainError, mod_m_spec, ndeg_lower_bound
from .subroutines import gram_closed_form_mismatches, gram_matrix, trace_mod3
from .sweep import (DEFAULT_MODULI, default_threads, judge_run, parse_threads,
                    run_sweep)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED_MODULUS = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmodw",
                     description="Exact Hamming-weight-mod-m query "
                                 "algorithms and their verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the algorithm on one input")
    p_run.add_argument("--x", required=True, help="input bit string")
    p_run.add_argument("--m", required=True, type=int, help="modulus")
    p_run.add_argument("--trace", action="store_true",
                       help="attach the query transcript")

    p_sweep = sub.add_parser("sweep",
                             help="exhaustively verify all inputs per (n, m)")
    p_sweep.add_argument("--n-max", required=True, type=int)
    p_sweep.add_argument("--moduli",
                         default=",".join(str(m) for m in DEFAULT_MODULI),
                         help="comma-separated moduli")
    p_sweep.add_argument("--threads", default=None,
                         help="worker processes (default: QMODW_THREADS, "
                              "else the CPU count)")

    p_states = sub.add_parser("verify-states",
                              help="diff the 32 intermediate states against "
                                   "the frozen table")
    p_states.add_argument("--format", choices=("table", "json"),
                          default="table")

    p_gram = sub.add_parser("gram",
                            help="emit the 8x8 Gram matrix, checked against "
                                 "the frozen one and both sign-vector "
                                 "formulas on all 64 pairs")
    p_gram.add_argument("--format", choices=("grid", "json"), default="grid")

    p_lb = sub.add_parser("lower-bound",
                          help="zero-weight count vs the query bound")
    p_lb.add_argument("--n", type=int)
    p_lb.add_argument("--m", type=int)
    p_lb.add_argument("--sweep", action="store_true")
    p_lb.add_argument("--n-max", type=int)

    return parser


def cmd_run(args) -> int:
    if not args.x or any(c not in "01" for c in args.x):
        print(f"error: not a bit string: {args.x!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.m < 2:
        print(f"error: modulus must be at least 2, got {args.m}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        factor_split(args.m)
    except UnsupportedModulus as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_MODULUS
    n = len(args.x)
    bound = query_bound(n, args.m)
    oracle, result, reasons = judge_run(int(args.x, 2), n, args.m, bound)
    if reasons:
        for reason in reasons:
            print(f"error: {reason}", file=sys.stderr)
        return EXIT_VERIFICATION
    report = {
        "input": args.x,
        "m": args.m,
        "residue": result.w2 % args.m,
        "queries": result.queries,
        "bound": bound,
        "blocks": [list(b) for b in result.blocks],
        "s2": list(result.s2),
        "w2": result.w2,
    }
    if args.trace:
        report["transcript"] = oracle.transcript
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n_max < 1:
        print(f"error: --n-max must be positive, got {args.n_max}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        moduli = [int(tok) for tok in args.moduli.split(",") if tok]
    except ValueError:
        print(f"error: bad moduli list: {args.moduli!r}", file=sys.stderr)
        return EXIT_USAGE
    if not moduli:
        print("error: empty moduli list", file=sys.stderr)
        return EXIT_USAGE
    if min(moduli) < 2:
        print(f"error: modulus must be at least 2, got {min(moduli)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        threads = (default_threads() if args.threads is None
                   else parse_threads(args.threads, "--threads"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = run_sweep(args.n_max, moduli, threads=threads)
    except UnsupportedModulus as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_MODULUS
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "m", "inputs", "failures",
                     "max_queries", "bound", "all_correct", "tight"])
    for row in rows:
        writer.writerow([row.n, row.m, row.inputs, row.failures,
                         row.max_queries, row.bound, row.all_correct,
                         row.tight])
    failed = [row for row in rows if row.failures]
    for row in failed:
        print(f"FAIL: n={row.n} m={row.m}: {row.failures} of {row.inputs} "
              "inputs failed", file=sys.stderr)
        for bits, reasons in row.first_failures:
            print(f"  x={bits}: " + "; ".join(reasons), file=sys.stderr)
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_verify_states(args) -> int:
    frozen = load_state_table()
    columns = {bits: trace_mod3(bits).as_list() for bits in STATE_TABLE_ORDER}
    mismatches = [f"{stage}({bits})"
                  for stage_idx, stage in enumerate(STAGES)
                  for bits in STATE_TABLE_ORDER
                  if columns[bits][stage_idx] != frozen[stage][bits]]
    # The circuit matrices, read at call time, must each be unitary.
    named = [("H", subroutines.H), ("QFT", subroutines.QFT),
             ("U", subroutines.U), ("V", subroutines.V)]
    named += [(f"Ox~({bits})", subroutines.fourier_oracle(bits))
              for bits in STATE_TABLE_ORDER]
    mismatches += [f"{name} not unitary" for name, matrix in named
                   if not matrix.is_unitary()]
    if args.format == "json":
        payload = {stage: {bits: columns[bits][stage_idx].to_json()
                           for bits in STATE_TABLE_ORDER}
                   for stage_idx, stage in enumerate(STAGES)}
        payload["match"] = not mismatches
        payload["mismatches"] = mismatches
        print(json.dumps(payload))
    else:
        print(format_state_table(columns, STAGES))
        for label in mismatches:
            print(f"MISMATCH: {label}")
        if not mismatches:
            print(f"all {len(STAGES) * len(STATE_TABLE_ORDER)} states match "
                  "the frozen table")
    return EXIT_VERIFICATION if mismatches else EXIT_OK


def _grid_cell(entry) -> str:
    """2·entry when that is an integer, as it is for every entry of the
    true Gram matrix; else the exact entry, so a wrong one still prints."""
    doubled = entry.rational_part() * 2
    if entry.is_rational() and doubled.denominator == 1:
        return f"{doubled.numerator:3d}"
    return f"{entry!s:>3}"


def cmd_gram(args) -> int:
    gram = gram_matrix()
    frozen = load_gram()
    problems = []
    for i in range(8):
        for j in range(8):
            if gram[i][j] != frozen[i][j]:
                problems.append(f"G[{i}][{j}] differs from frozen matrix")
    problems.extend(f"closed form {variant} differs at ({x}, {y})"
                    for x, y, variant in gram_closed_form_mismatches(gram))
    if args.format == "json":
        print(json.dumps({
            "entries": [[e.to_json() for e in row] for row in gram],
            "match": not problems,
        }))
    else:
        for row in gram:
            print("  ".join(map(_grid_cell, row)))
        if not problems:
            print("closed forms agree with the state Gram matrix "
                  "on all 64 pairs")
    for msg in problems:
        print(f"MISMATCH: {msg}", file=sys.stderr)
    return EXIT_VERIFICATION if problems else EXIT_OK


def cmd_lower_bound(args) -> int:
    if args.sweep:
        if args.n is not None or args.m is not None:
            print("error: --sweep takes --n-max, not --n or --m",
                  file=sys.stderr)
            return EXIT_USAGE
        n_max = 20 if args.n_max is None else args.n_max
        if n_max < 2:
            print("error: --n-max must be at least 2", file=sys.stderr)
            return EXIT_USAGE
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "m", "zero_weights", "bound", "equal"])
        all_equal = True
        for n in range(2, n_max + 1):
            for m in range(2, n + 1):
                zeros = ndeg_lower_bound(mod_m_spec(n, m))
                bound = query_bound(n, m)
                writer.writerow([n, m, zeros, bound, zeros == bound])
                all_equal = all_equal and zeros == bound
        return EXIT_OK if all_equal else EXIT_VERIFICATION
    if args.n_max is not None:
        print("error: --n-max needs --sweep", file=sys.stderr)
        return EXIT_USAGE
    if args.n is None or args.m is None:
        print("error: need --n and --m (or --sweep)", file=sys.stderr)
        return EXIT_USAGE
    try:
        zeros = ndeg_lower_bound(mod_m_spec(args.n, args.m))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bound = query_bound(args.n, args.m)
    report = {"n": args.n, "m": args.m, "zero_weights": zeros,
              "bound": bound}
    try:
        factor_split(args.m)
    except UnsupportedModulus:
        report["upper_bound"] = None
        report["note"] = ("the upper bound is shown only for "
                          "m = 2^a * 3^b")
    else:
        report["matches_upper_bound"] = zeros == bound
    print(json.dumps(report))
    return EXIT_OK if zeros == bound else EXIT_VERIFICATION


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify-states": cmd_verify_states,
    "gram": cmd_gram,
    "lower-bound": cmd_lower_bound,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
