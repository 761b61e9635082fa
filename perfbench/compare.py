"""Collect benchmark runs over many seeds, and compare two sets of them.

    python3 perfbench/compare.py collect OUT.jsonl [--workloads release,analyze]
        [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 perfbench/compare.py A.jsonl [B.jsonl]

`collect` appends one JSON line per run (workload, seed, trace, the run's
detail and result). Given one file, the compare mode prints each metric's
median and quartiles per workload, and its spread (interquartile range over
median) against the bound in BENCHMARK.json. Given two, it prints both sides
and the change of the medians, one row per workload under each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    run = os.path.join(HERE, "run.py")
    for seed in _seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [sys.executable, run, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            record = json.loads(lines[-2])
            record["result"] = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            result = record["result"]
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
    return 0


def load(path: str) -> dict:
    """workload -> metric -> list of values (result metrics and detail figures)."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            metrics = out.setdefault(rec["workload"], {})
            figures = {**rec["detail"], **rec["result"]["metrics"]}
            for name, m in figures.items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def report(paths: list[str]) -> int:
    sides = [load(p) for p in paths]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    names = []
    for side in sides:
        for metrics in side.values():
            names += [n for n in metrics if n not in names]
    for name in names:
        bound = bounds.get(name)
        print(f"{name}" + (f"   (bound {bound})" if bound is not None else ""))
        for workload in sorted({w for side in sides for w in side}):
            cells = []
            medians = []
            for side in sides:
                values = side.get(workload, {}).get(name)
                if not values:
                    cells.append(f"{'-':>40}")
                    continue
                q1, med, q3 = summary(values)
                medians.append(med)
                cells.append(f"{med:>12.6g} [{q1:.6g}, {q3:.6g}] n={len(values):<2} "
                             f"spread {spread(values):.3f}")
            line = f"  {workload:<9} " + "  |  ".join(cells)
            if len(medians) == 2 and medians[0]:
                line += f"  change {100 * (medians[1] - medians[0]) / medians[0]:+.1f}%"
            print(line)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "collect":
        parser = argparse.ArgumentParser(prog="compare.py collect")
        parser.add_argument("out")
        parser.add_argument("--workloads", default="release,analyze,validate")
        parser.add_argument("--seeds", default="1-10")
        parser.add_argument("--seconds", default=None)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv[1:])
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                args.seconds = json.load(fh)["run_seconds"]
        return collect(args)
    parser = argparse.ArgumentParser(prog="compare.py")
    parser.add_argument("files", nargs="+", help="one or two files written by `collect`")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two result files")
    return report(args.files)


if __name__ == "__main__":
    sys.exit(main())
