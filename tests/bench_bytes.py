"""Digests of every benchmark report, for a byte-for-byte comparison of two checkouts.

    python3 tests/bench_bytes.py 1 7 > bytes.txt

For each seed and each workload of `bench/workloads.py`, the script writes the
inputs into `.bench_work/<workload>/` under a temporary directory and issues
every request from that directory, so the reports record the relative paths
that `bench/run.py` gives them, and nothing in the checkout is written.  Each request runs in process through `lumpwalk.cli.main`, once with
`--json` and once with `--text`, and gives one line: workload, seed, request
index, output flag, command, exit code, and the sha256 of standard output and
of standard error.  Copy the script into the `tests/` of another checkout and
run it there with the same seeds: the two outputs are equal exactly when every
request exits with the same code and writes the same bytes.

It imports `lumpwalk` from the `src/` next to it and reads `bench/workloads.py`
only.  pytest does not collect
it (the file name does not start with `test_`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import lumpwalk.cli as cli  # noqa: E402
import workloads  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def request_lines(name: str, seed: int):
    """One line per request and output flag of one workload at one seed,
    issued from the current directory."""
    spec = workloads.build(name, seed, Path(".bench_work") / name)
    for i, req in enumerate(spec.requests):
        for flag in ("--json", "--text"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(req.argv + [flag])
                except Exception as exc:  # a traceback is an outcome too
                    code = f"raised:{type(exc).__name__}"
            yield (f"{name} seed={seed} #{i} {flag} {req.command} exit={code}"
                   f" out={digest(out.getvalue())} err={digest(err.getvalue())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # reports record the relative input paths
        try:
            for seed in args.seeds:
                for name in workloads.WORKLOADS:
                    for line in request_lines(name, seed):
                        print(line, flush=True)
        finally:
            os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
