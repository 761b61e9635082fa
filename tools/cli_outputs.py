"""Fingerprint what the CLI prints for every benchmark operation.

    python3 tools/cli_outputs.py [--checkout DIR] [--seeds 1 2 ...]

For each seed, builds the release, analyze and validate workloads of
`perfbench/workloads.py` in a temporary directory (removed afterwards), runs
each of their operations and probes once through `raqdp.cli.main` in this
process, and prints one line per call: workload, seed, index (operations,
then probes), exit code, and the sha256 of its standard output and of its
standard error, with the temporary directory's path replaced by `<work>`.
raqdp is imported from DIR/src and the workloads from DIR/perfbench (DIR is
the checkout holding this script by default); neither is written to.

Two checkouts print the same lines exactly when every call printed the same
bytes and ended with the same exit code, so a change meant to keep outputs
compares its lines with its parent's:

    python3 tools/cli_outputs.py --checkout PARENT > parent.txt
    python3 tools/cli_outputs.py > change.txt
    cmp parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("release", "analyze", "validate")


def _digest(text: str, workdir: str) -> str:
    return hashlib.sha256(text.replace(workdir, "<work>").encode()).hexdigest()


def _call(cli, argv: list[str]) -> tuple[str, str, str]:
    """The exit code, standard output and standard error of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = str(cli.main(list(argv)))
        except SystemExit as exc:  # argparse refused the arguments
            rc = str(exc.code)
        except Exception as exc:  # a crash is an outcome to compare too
            rc = f"raised:{type(exc).__name__}"
            print(exc, file=err)
    return rc, out.getvalue(), err.getvalue()


def _load(checkout: str):
    """raqdp.cli from the checkout's src/, and its perfbench/workloads.py."""
    sys.dont_write_bytecode = True  # leave both trees as they are
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import raqdp.cli as cli
    import workloads

    for module in (cli, workloads):
        if not os.path.abspath(module.__file__).startswith(checkout + os.sep):
            sys.exit(f"cli_outputs: imported {module.__file__}, not from {checkout}")
    return cli, workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="root of the checkout to run (default: this script's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    cli, workloads = _load(os.path.abspath(args.checkout))
    for seed in args.seeds:
        for name in WORKLOADS:
            workdir = tempfile.mkdtemp(prefix=f"cli-outputs-{name}-")
            try:
                work = workloads.GENERATORS[name](seed, workdir)
                for i, op in enumerate(work.ops + work.probes):
                    rc, out, err = _call(cli, op.argv)
                    print(name, seed, i, rc, _digest(out, workdir), _digest(err, workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
