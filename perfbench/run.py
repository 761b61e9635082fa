"""raqdp benchmark: drives `raqdp.cli.main` in-process on seeded workloads.

    python3 perfbench/run.py --workload release|analyze|validate|all \
        --seed N --seconds S --trace 0|1 [--spans PATH] [--self-check]

Run from the repository root. One process and one thread act as a single
closed-loop client: each CLI call starts when the previous one has returned.
Every call's printed output is checked (see workloads.py); a wrong exit code,
a wrong output or an exception counts as a failed operation.

--trace 0 measures the end-to-end metrics. --trace 1 runs the same operation
sequence twice, untraced and then with every layer wrapped (tracer.py), and
reports per-layer metrics plus the tracing overhead between the two passes.
--workload all runs each workload in its own process and prints every metric
by name. --self-check perturbs every expected value and exits 0 only if all
operations were then counted as failed.

Timed calls run under the speed probe of reference.py: the gated latency and
throughput (`op_p50_cal_ms`, `work_per_cal_s`) are in calibrated time, the
wall time of each call scaled by how fast the machine ran the reference
around it; the wall-time figures are printed beside them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it carries the same run's
workload-specific metrics under "detail".
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("release", "analyze", "validate")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from reference import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import raqdp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first import may compile bytecode
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import raqdp"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"importing raqdp failed: {proc.stderr.strip().splitlines()[-1:]}")
    return statistics.median(times[1:])


def _perturb(value):
    """A deliberately wrong expected value, for --self-check."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    return ("not", value)


@dataclass
class Call:
    op: int  # index into the workload's ops
    wall_s: float
    cal_s: float  # wall time scaled to the reference machine (reference.py)


class Runner:
    def __init__(self, cli, self_check: bool):
        self.cli = cli
        self.self_check = self_check
        self.attempted = 0
        self.failed = 0
        self.ref_s: list[float] = []  # every reference sample of the timed loops
        self.probe: SpeedProbe | None = None  # set while a timed loop runs

    def run(self, op: workloads.Op) -> tuple[float, str]:
        """One CLI call: its wall time (without the probe's samples) and its standard output."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        busy = self.probe.busy_s if self.probe else 0.0
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an exception is a failed operation, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - ((self.probe.busy_s if self.probe else 0.0) - busy)
        text = out.getvalue()
        pairs = op.check(rc, text) if error is None else [("exception", error, None)]
        if self.self_check:
            pairs = [(label, got, _perturb(want)) for label, got, want in pairs]
        bad = [(label, got, want) for label, got, want in pairs if got != want]
        self.attempted += 1
        if bad:
            self.failed += 1
            if self.failed <= 5 and not self.self_check:
                label, got, want = bad[0]
                print(f"perfbench: FAILED {' '.join(op.argv[:3])}: {label}: got {got!r}, "
                      f"expected {want!r} {err.getvalue().strip()[:200]}", file=sys.stderr)
        return elapsed, text

    def loop(self, work: workloads.Workload, seconds: float) -> list[Call]:
        """Closed loop over the ops in order, in whole rounds, for about `seconds`.

        It stops at the end of the round that ends nearest to `seconds`,
        judged by the mean length of the rounds so far.
        """
        start = time.perf_counter()

        def stop(n: int) -> bool:
            if n % work.round_size:
                return False
            elapsed = time.perf_counter() - start
            return elapsed + elapsed / (n // work.round_size) / 2 >= seconds

        return self._timed(work, itertools.count(), stop)

    def replay(self, work: workloads.Workload, calls: list[Call]) -> list[Call]:
        """The same ops as `calls`, in the same order, once."""
        return self._timed(work, (c.op for c in calls), lambda n: n == len(calls))

    def _timed(self, work, indices, stop) -> list[Call]:
        """Time ops until stop(number done) holds, with the speed probe running."""
        spans = []
        with SpeedProbe() as self.probe:
            for k in indices:
                i = k % len(work.ops)
                start = time.perf_counter()
                wall = self.run(work.ops[i])[0]
                spans.append((i, start, time.perf_counter(), wall))
                if stop(len(spans)):
                    break
        probe, self.probe = self.probe, None
        self.ref_s += probe.samples
        return [Call(i, wall, wall * probe.scale(start, end)) for i, start, end, wall in spans]


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]


def end_to_end(work: workloads.Workload, done: list[Call]) -> dict:
    """Latency quantiles over the calls and throughput over whole rounds.

    The gated figures use calibrated time (reference.py); the wall-time
    figures beside them are what a user of this machine saw during the run.
    """
    wall = [c.wall_s for c in done]
    cal = [c.cal_s for c in done]
    units = sum(work.ops[c.op].units for c in done)
    return {
        "op_p50_cal_ms": statistics.median(cal) * 1000,
        "op_p90_cal_ms": _p90(cal) * 1000,
        "work_per_cal_s": units / sum(cal),
        "op_p50_wall_ms": statistics.median(wall) * 1000,
        "op_p90_wall_ms": _p90(wall) * 1000,
        "work_per_wall_s": units / sum(wall),
        "wall_per_cal": sum(wall) / sum(cal),
    }


def named(workload: str, e2e: dict, work: workloads.Workload, done: list[Call]) -> dict:
    """The figures of the run by name, with units; the workload's own names in wall time."""
    if workload == "release":
        out = {"release_s": (e2e["op_p50_wall_ms"] / 1000, "s"),
               "release_rows_per_s": (e2e["work_per_wall_s"], "rows/s")}
    elif workload == "analyze":
        out = {"analyze_p50_ms": (e2e["op_p50_wall_ms"], "ms"),
               "analyze_p90_ms": (e2e["op_p90_wall_ms"], "ms")}
    else:
        out = {"validate_s": (e2e["op_p50_wall_ms"] / 1000, "s"),
               "validate_dbs_per_s": (e2e["work_per_wall_s"], "dbs/s")}
    for name, unit in (("op_p50_cal_ms", "ms"), ("op_p90_cal_ms", "ms"), ("work_per_cal_s", "1/s"),
                       ("op_p50_wall_ms", "ms"), ("op_p90_wall_ms", "ms"),
                       ("work_per_wall_s", "1/s"), ("wall_per_cal", "ratio")):
        out[name] = (e2e[name], unit)
    out["ops_timed"] = (len(done), "count")
    out["heavy_ops_timed"] = (sum(work.ops[c.op].heavy for c in done), "count")
    return out


def untraced(runner: Runner, workload: str, work, seconds: float):
    setup_s = measure_setup()
    done = runner.loop(work, seconds)
    metrics = end_to_end(work, done)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = named(workload, metrics, work, done)
    detail["setup_s"] = (setup_s, "s")
    detail["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    detail["reference_ms"] = (statistics.median(runner.ref_s) * 1000, "ms")
    detail["reference_samples"] = (len(runner.ref_s), "count")
    return metrics, detail


def traced(runner: Runner, work, seconds: float, units: dict, spans_path: str | None):
    """Untraced pass, then the same calls traced, then the traced-only probes."""
    plain = runner.loop(work, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = runner.replay(work, plain)
        rows = sum(workloads.trace_rows(runner.run(probe)[1]) for probe in work.probes)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write_spans(spans_path)
    calls = len(wrapped) + len(work.probes)
    metrics = tracer.layer_metrics(calls)
    metrics["engine.trace_rows"] = rows / calls
    base = sum(c.cal_s for c in plain)
    metrics["trace.overhead_pct"] = 100 * (sum(c.cal_s for c in wrapped) - base) / base
    detail = {name: (value, units[name]) for name, value in metrics.items()}
    detail["traced_calls"] = (calls, "count")
    detail["missing_names"] = (len(tracer.missing), "count")
    for name in tracer.missing:
        print(f"perfbench: traced name missing: {name}", file=sys.stderr)
    return metrics, detail


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "raqdp", "cli.py")):
        fail(f"no raqdp sources under {SRC}; run from the root of a checkout")
    spec = _benchmark()
    sys.path.insert(0, SRC)
    import raqdp.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"imported raqdp from {cli.__file__}, not from {SRC}")
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        work = workloads.GENERATORS[args.workload](args.seed, workdir)
        runner = Runner(cli, args.self_check)
        runner.run(work.ops[0])  # warm-up: first-call costs stay out of the loop
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, detail = traced(runner, work, args.seconds, units, args.spans)
        else:
            metrics, detail = untraced(runner, args.workload, work, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)  # only if no other run is using it
        except OSError:
            pass
    detail["failed_frac"] = (runner.failed / runner.attempted, "fraction")
    for name, (value, unit) in detail.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}))
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }))
    if args.self_check:
        ok = runner.failed == runner.attempted
        print(f"perfbench: self-check {'PASS' if ok else 'FAIL'}: {runner.failed} of "
              f"{runner.attempted} operations failed against perturbed expectations",
              file=sys.stderr)
        return 0 if ok else 1
    return 0


def run_all(args) -> int:
    """Each workload in its own process; every end-to-end metric by name."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            fail(f"workload {workload} exited with code {proc.returncode}")
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        results[workload] = result
        print(f"{workload}: {result['attempted']} operations, {result['failed']} failed")
        for name, m in {**detail, **result["metrics"]}.items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, also write every span to PATH as JSON lines")
    parser.add_argument("--self-check", action="store_true",
                        help="perturb every expected value; pass if every operation fails")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
