"""Measure the memory that loading and querying the release workload take.

    python3 tools/release_memory.py [--checkout DIR] [--seeds 1 2 ...]

For each seed, builds the release workload of `perfbench/workloads.py` in a
temporary directory (removed afterwards). Under `tracemalloc` it then loads
the People CSV once (`raqdp.engine.load_csv`) and runs each release
operation once through `raqdp.cli.main` in this process, and prints one line
per measurement: seed, name, and the MB still allocated after it (retained)
and the most allocated during it (peak), both counted from what was allocated
before it. Each is run once unmeasured first, so that compiled code and
caches are not counted, and a full garbage collection, which also empties the
interpreter's free lists, runs before and after it. raqdp is imported from
DIR/src and the workloads from DIR/perfbench (DIR is the checkout holding
this script by default), as `tools/cli_outputs.py` does; neither is written
to.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import tracemalloc

sys.dont_write_bytecode = True  # leave this checkout as it is
from cli_outputs import _call, _load  # noqa: E402

MB = 1 << 20


def _measured(run) -> tuple[float, float]:
    """The MB that run() leaves allocated, after a full collection, and the
    most it had allocated, after one unmeasured run."""
    run()
    gc.collect()  # it empties the free lists too, so every object run() makes is counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = run()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        del kept
    finally:
        tracemalloc.stop()
    return (retained - before) / MB, (peak - before) / MB


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="root of the checkout to run (default: this script's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    cli, workloads = _load(os.path.abspath(args.checkout))
    from raqdp.engine import load_csv
    from raqdp.parsing import parse_schemas

    print("seed measurement retained_MB peak_MB")
    for seed in args.seeds:
        workdir = tempfile.mkdtemp(prefix="release-memory-")
        try:
            work = workloads.build_release(seed, workdir)
            with open(os.path.join(workdir, "release.schema"), encoding="utf-8") as fh:
                schema = parse_schemas(fh.read())["People"]
            people = os.path.join(workdir, "people.csv")
            retained, peak = _measured(lambda: load_csv(schema, people))
            print(seed, "load People", f"{retained:.2f}", f"{peak:.2f}")
            for (name, _, _), op in zip(workloads.RELEASE_QUERIES, work.ops):
                def run(argv=op.argv):
                    rc, out, err = _call(cli, argv)
                    if rc != "0":
                        sys.exit(f"release_memory: {name} exited {rc}: {err.strip()}")

                retained, peak = _measured(run)
                print(seed, name, f"{retained:.2f}", f"{peak:.2f}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
