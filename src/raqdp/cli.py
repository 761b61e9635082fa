"""Command-line front end.

Four commands share a pair of positional file arguments (schema file, query
file):

  analyze   static sensitivity report; never reads data files
  run       exact evaluation over CSV data
  dp-run    noisy release calibrated to the sensitivity bound
  validate  compare the static bound against the brute-force oracle

Exit codes: 0 success (also when the reader of standard output has gone),
2 input error, 3 unbounded sensitivity, 4 oracle infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .analyzer import SensitivityReport, global_sensitivity
from .constraints import DEFAULT_DNF_CAP, DEFAULT_ENUM_CAP, format_constraint
from .dp import DpParams, dp_answer
from .engine import Relation, answer, load_csv
from .errors import (
    DataError,
    EvalError,
    OracleError,
    ParseError,
    SchemaError,
    UnboundedSensitivityError,
    ValidationError,
)
from .extmath import format_ext, is_infinite, parse_rational, to_double
from .oracle import DEFAULT_UNIVERSE_CAP, brute_sensitivity, build_universe
from .parsing import parse_query, parse_schemas
from .query import base_relations, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNBOUNDED = 3
EXIT_ORACLE = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building one costs argparse about a millisecond, more than some
    commands' own work, and `main` may run many times in one process.
    Sharing is safe because parsing leaves the parser unchanged: argparse
    copies the one list default, `--data`'s, before appending to it, and no
    command changes `args.data`. Callers must not modify the shared parser;
    `build_parser.__wrapped__()` builds a private one.
    """
    parser = argparse.ArgumentParser(
        prog="raqdp",
        description="Sensitivity analysis and differentially private execution "
        "of relational algebra queries over constrained schemas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, data: bool, fmt_default: str):
        sp.add_argument("schema", help="schema file with relation declarations")
        sp.add_argument("query", help="query file")
        sp.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="solution-count cap for constraint enumeration")
        sp.add_argument("--dnf-cap", type=int, default=DEFAULT_DNF_CAP,
                        help="branch cap for disjunctive constraint splitting")
        sp.add_argument("--format", choices=("json", "table"), default=fmt_default)
        if data:
            sp.add_argument("--data", action="append", default=[], metavar="NAME=PATH",
                            help="CSV data file for a relation (repeatable)")

    sp = sub.add_parser("analyze", help="static sensitivity report (no data needed)")
    common(sp, data=False, fmt_default="table")

    sp = sub.add_parser("run", help="evaluate the query exactly over CSV data")
    common(sp, data=True, fmt_default="table")
    sp.add_argument("--trace", action="store_true",
                    help="print intermediate relation row counts")

    sp = sub.add_parser("dp-run", help="release a noisy answer")
    common(sp, data=True, fmt_default="json")
    sp.add_argument("--epsilon", required=True,
                    help="privacy parameter (rational, e.g. 1, 1/2, 0.25)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed (64-bit unsigned) for a reproducible release, whose noise "
                         "anyone who knows the seed can recompute; without it the noise "
                         "comes from the operating system")

    sp = sub.add_parser("validate", help="check the bound against the brute-force oracle")
    common(sp, data=True, fmt_default="json")
    sp.add_argument("--universe-cap", type=int, default=DEFAULT_UNIVERSE_CAP,
                    help="largest combined tuple universe the oracle will enumerate")
    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def _parse_data(items: list[str], schemas: dict) -> dict[str, Relation]:
    db: dict[str, Relation] = {}
    for item in items:
        name, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"--data expects NAME=PATH, got {item!r}")
        name = name.strip()
        if name not in schemas:
            raise ValueError(f"--data names unknown relation {name!r}")
        if name in db:
            raise ValueError(f"--data given twice for relation {name!r}")
        db[name] = load_csv(schemas[name], path.strip())
    return db


def _load(args, *, all_data: bool = True):
    """Parse the schema and query files, load every --data file, and
    validate the query once with the user's caps.

    With `all_data`, every base relation of the query needs a --data file.
    Returns (validated query, database): the validated query carries every
    schema the command reads, the oracle's included.
    """
    schemas = parse_schemas(_read(args.schema))
    tq = parse_query(_read(args.query))
    # analyze takes no --data
    db = _parse_data(getattr(args, "data", []), schemas)
    missing = sorted(base_relations(tq.body) - set(db))
    if all_data and missing:
        raise ValueError(f"no --data for relation(s): {', '.join(missing)}")
    vq = validate(tq, schemas, enum_cap=args.enum_cap, dnf_cap=args.dnf_cap)
    return vq, db


def _json_value(v):
    if isinstance(v, str):
        return v
    return format_ext(Fraction(v))


def _print_report(report: SensitivityReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"global sensitivity: {format_ext(report.gs)}")
    top = report.top
    line = f"aggregation: {top.fn.kind}"
    if top.fn.attr is not None:
        line += f"({top.fn.attr})"
    line += f"   delta_f: {format_ext(top.delta_f)}"
    b = top.bounds
    if b is not None and not b.empty:
        line += f"   value range: [{format_ext(b.lower)}, {format_ext(b.upper)}]"
    print(line)
    print("nodes (bottom-up):")
    for rec in report.nodes:
        print(
            f"  {rec.op:<16} delta={format_ext(rec.delta):<6} "
            f"diam={format_ext(rec.diam):<10} S={format_ext(rec.s)}"
        )
        print(f"    constraint: {format_constraint(rec.schema.constraint)}")
    for w in report.warnings:
        print(f"warning: {w}")


def cmd_analyze(args) -> int:
    vq, _ = _load(args, all_data=False)
    report = global_sensitivity(vq)
    _print_report(report, args.format)
    return EXIT_UNBOUNDED if is_infinite(report.gs) else EXIT_OK


def cmd_run(args) -> int:
    vq, db = _load(args)
    trace: list | None = [] if args.trace else None
    value = answer(vq, db, trace=trace)
    if args.format == "json":
        out = {"answer": format_ext(value), "answer_float": to_double(value, "answer")}
        if trace is not None:
            out["trace"] = [{"op": op, "rows": n} for op, n in trace]
        print(json.dumps(out, indent=2))
    else:
        if trace is not None:
            print("trace (bottom-up):")
            for op, n in trace:
                print(f"  {op:<16} {n} row{'s' if n != 1 else ''}")
        print(format_ext(value))
    return EXIT_OK


def cmd_dp_run(args) -> int:
    vq, db = _load(args)
    params = DpParams(parse_rational(args.epsilon, "epsilon"), args.seed)
    result = dp_answer(vq, db, params)
    if args.format == "json":
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        print(f"noisy answer: {result.noisy_value}")
        print(f"gs: {format_ext(result.gs_used)}   epsilon: {result.epsilon}   "
              f"seed: {'none' if result.seed is None else result.seed}   "
              f"rng: {result.rng_name}")
        print(f"note: {result.note}")
        for w in result.warnings:
            print(f"warning: {w}")
    return EXIT_OK


def cmd_validate(args) -> int:
    # relations without --data form the oracle's enumerated universe
    vq, context = _load(args, all_data=False)
    report = global_sensitivity(vq)
    universe = build_universe(vq, context, cap=args.universe_cap)
    brute = brute_sensitivity(vq, universe)
    if brute.value > report.gs:
        verdict = "VIOLATION"
    elif brute.value == report.gs:
        verdict = "STRICT"
    else:
        verdict = "SOUND"
    witness = None
    if brute.witness is not None:
        before, after = brute.witness
        witness = {
            "R": {k: [[_json_value(v) for v in t] for t in rows] for k, rows in before.items()},
            "R_plus": {k: [[_json_value(v) for v in t] for t in rows] for k, rows in after.items()},
        }
    out = {
        "gs": format_ext(report.gs),
        "oracle": format_ext(brute.value),
        "witness": witness,
        "verdict": verdict,
    }
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(f"static bound: {out['gs']}   oracle: {out['oracle']}   verdict: {verdict}")
        if witness is not None:
            print(f"witness pair: {json.dumps(witness)}")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "run": cmd_run,
    "dp-run": cmd_dp_run,
    "validate": cmd_validate,
}


# One row per exit code: the exception classes that end a command with it.
# An exact value beyond double range is a ValueError that names its field
# (extmath.to_double); OverflowError stays for any other float overflow.
_EXIT_CODES = (
    ((ParseError, SchemaError, ValidationError, EvalError, DataError,
      OSError, ValueError, ZeroDivisionError, OverflowError, MemoryError), EXIT_INPUT),
    (UnboundedSensitivityError, EXIT_UNBOUNDED),
    (OracleError, EXIT_ORACLE),
)


def _check_options(args) -> None:
    """Refuse option values that argparse lets through but no command can use.

    For `--opt=--` argparse stores an empty list or, in some Python
    versions, the string '--' (for a repeatable option, inside its list),
    where every option here takes one string or number; `--data` is the
    one repeatable option.
    Caps are counts: a negative one is an input error.
    """
    for dest, value in vars(args).items():
        values = value if dest == "data" else [value]
        if any(isinstance(v, list) or v == "--" for v in values):
            raise ValueError(f"--{dest.replace('_', '-')} needs a value, got '--'")
    for name in ("enum_cap", "dnf_cap", "universe_cap"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must not be negative, got {value}")


def _discard_stdout() -> None:
    """Point standard output's descriptor, if it has one, at the null device,
    so the interpreter's last flush of what is still buffered succeeds
    (the "Note on SIGPIPE" in the `signal` module's documentation)."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # io.UnsupportedOperation: an in-memory stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        code = _COMMANDS[args.command](args)
        # a closed stdout shows here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`raqdp analyze S Q | head -1`): not an
        # input error, although BrokenPipeError is an OSError
        _discard_stdout()
        return EXIT_OK
    except RecursionError:
        # parsing, validation and evaluation recurse along the input's nesting
        print("error: the input is nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        code = next((code for classes, code in _EXIT_CODES if isinstance(e, classes)), None)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, DataError):
            for line in e.violations:
                print(f"  {line}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
