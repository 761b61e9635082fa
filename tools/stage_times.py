"""Time each stage of every release, analyze and validate benchmark operation.

    python3 tools/stage_times.py [--checkout DIR] [--seeds 1 2 ...] [--repeats N]

For each seed, builds the release, analyze and validate workloads of
`perfbench/workloads.py` in a temporary directory (removed afterwards) and
runs each operation's stages in this process, as `raqdp.cli` runs them:
parse (schema and query text), load (each --data file, `engine.load_csv`),
`query.validate`, then `global_sensitivity` (analyze and validate), report
rendering (analyze only: `cli._print_report` into a buffer), the answer
(`dp-run` only: `engine.answer`, plan evaluation on its own), the release
(`dp-run` only: `dp.dp_answer`, which computes the bound, the answer again
and the noise), and `build_universe` and `brute_sensitivity` (validate only). Every repetition
parses afresh, so no stage reuses what an earlier repetition kept on its
schema, plan or constraint objects; compiled-code caches stay warm, as in a
long-running process.

It prints one line per operation: workload, seed, index, the best-of-N wall
time of each stage in microseconds ("-" where the command has no such stage,
"!" from a stage that raised on, as the command would stop there), and the
number of `constraints.narrow` calls in one more, counted, repetition. After
each workload and seed comes a line of the medians over its operations.
raqdp is imported from DIR/src and the workloads from DIR/perfbench (DIR is
the checkout holding this script by default); neither is written to.

Uses the standard library only. Timings are wall time on whatever machine
runs it; compare two checkouts by running both on the same machine, one
after the other:

    python3 tools/stage_times.py --checkout PARENT
    python3 tools/stage_times.py
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout

WORKLOADS = ("release", "analyze", "validate")
STAGES = ("parse", "load", "validate", "gs", "report", "answer", "release", "universe", "brute")


def _load(checkout: str):
    """The raqdp modules from the checkout's src/, and its perfbench/workloads.py."""
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import raqdp.cli as cli
    import workloads

    for module in (cli, workloads):
        if not os.path.abspath(module.__file__).startswith(checkout + os.sep):
            sys.exit(f"stage_times: imported {module.__file__}, not from {checkout}")
    return cli, workloads


def _stages(cli, args) -> list:
    """One (stage, thunk) per stage the command runs; each thunk takes the
    previous stage's result."""
    def parse(_):
        return cli.parse_schemas(cli._read(args.schema)), cli.parse_query(cli._read(args.query))

    def load(parsed):
        schemas, tq = parsed
        return schemas, tq, cli._parse_data(getattr(args, "data", []), schemas)

    def validate(loaded):
        schemas, tq, db = loaded
        return cli.validate(tq, schemas, enum_cap=args.enum_cap, dnf_cap=args.dnf_cap), db

    def gs(loaded):
        return loaded, cli.global_sensitivity(loaded[0])

    def report(state):
        with redirect_stdout(io.StringIO()):
            cli._print_report(state[1], args.format)
        return state

    def universe(state):
        (vq, db), _ = state
        return vq, cli.build_universe(vq, db, cap=args.universe_cap)

    def brute(state):
        return cli.brute_sensitivity(*state)

    def answer(state):
        cli.answer(*state)
        return state

    def release(state):
        params = cli.DpParams(cli.parse_rational(args.epsilon, "epsilon"), args.seed)
        return cli.dp_answer(*state, params)

    tail = {
        "dp-run": [("answer", answer), ("release", release)],
        "analyze": [("gs", gs), ("report", report)],
        "validate": [("gs", gs), ("universe", universe), ("brute", brute)],
    }[args.command]
    return [("parse", parse), ("load", load), ("validate", validate)] + tail


def _run_once(stages) -> dict:
    """Each stage's wall time in seconds; None from the first that raised on."""
    times, value = {}, None
    for name, thunk in stages:
        start = time.perf_counter()
        try:
            value = thunk(value)
        except Exception:  # the command would stop here and print an error
            return times | {name: None for name, _ in stages if name not in times}
        times[name] = time.perf_counter() - start
    return times


def _counted_narrows(constraints, stages) -> int:
    """The number of `constraints.narrow` calls in one run of the stages."""
    real = constraints.narrow
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    constraints.narrow = counted
    try:
        _run_once(stages)
    finally:
        constraints.narrow = real
    return calls


def _cell(value) -> str:
    if value is None:
        return "!"
    return "-" if value == "-" else f"{value * 1e6:.0f}"


def _median_count(value) -> str:
    return value if value == "-" else f"{value:g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="root of the checkout to run (default: this script's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--repeats", type=int, default=5, help="repetitions per operation (best of N)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    cli, workloads = _load(os.path.abspath(args.checkout))
    constraints = sys.modules["raqdp.constraints"]
    print("workload seed index", *(f"{s}_us" for s in STAGES), "narrows")
    for seed in args.seeds:
        for name in WORKLOADS:
            workdir = tempfile.mkdtemp(prefix=f"stage-times-{name}-")
            try:
                rows = []
                for i, op in enumerate(workloads.GENERATORS[name](seed, workdir).ops):
                    stages = _stages(cli, cli.build_parser().parse_args(op.argv))
                    runs = [_run_once(stages) for _ in range(args.repeats)]
                    best = {}
                    for stage in STAGES:
                        seen = [run.get(stage, "-") for run in runs]
                        best[stage] = "-" if "-" in seen else None if None in seen else min(seen)
                    row = [best[s] for s in STAGES] + [_counted_narrows(constraints, stages)]
                    rows.append(row)
                    print(name, seed, i, *map(_cell, row[:-1]), row[-1])
                medians = []
                for column in zip(*rows):
                    numbers = [v for v in column if v not in (None, "-")]
                    medians.append(statistics.median(numbers) if numbers else "-")
                print(name, seed, "median", *map(_cell, medians[:-1]), _median_count(medians[-1]))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
