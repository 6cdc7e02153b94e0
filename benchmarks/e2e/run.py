"""Runner of the end-to-end co-search benchmark.

One process per workload run::

    python3 benchmarks/e2e/run.py --workload local_inner --seed 0
    PYTHONPATH=src python -m benchmarks.e2e --all

A run checks outputs before it reports a timing (every co-search's digest
against the first one's, which on the remote and tracked routes is an untimed
local reference search), prints every metric by name with unit, direction and
regression bound, then two JSON lines: the full summary and, last, the
driver's ``{"correct", "attempted", "failed", "metrics"}`` object.  It exits
non-zero if any co-search failed or the span identity broke.

The benchmark driver calls ``<command> --workload <name> --seed <n> --seconds
<run_seconds> --trace <0|1>`` and wants the end-to-end metrics alone with
``--trace 0`` and the per-layer metrics alone with ``--trace 1`` (README,
"The driver's contract"); without ``--trace`` a run reports both.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
from typing import List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORKLOAD_NAMES = ("local_inner", "local_outer", "remote_inner", "tracked_inner")

#: the benchmark's runtime environment, not repo knobs: NumPy's default
#: OpenBLAS pool alone drifted first-10/last-10 medians by 15% on 2 cores
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap_environment() -> None:
    """Fix the runtime environment; must run before NumPy is imported.

    The hash seed only takes effect at interpreter start, so an unset
    ``PYTHONHASHSEED`` re-executes this interpreter with it set to 0.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])
    for entry in (ROOT, ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=0,
                        help="the driver's run seed, recorded in the summary; every "
                        "run seed times the same frozen search (see --search-seed)")
    parser.add_argument("--search-seed", type=int, default=0,
                        help="co-search seed of the timed instance: 0 is the frozen "
                        "baseline instance, 1 the held-out one for later claims")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat the timed co-search for this long and at least "
                        "MIN_REPS times (default: the frozen RUN_SECONDS)")
    parser.add_argument("--setup-samples", type=int, default=4,
                        help="fresh interpreters timed for setup_s after one discarded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced repetition's spans as Chrome-trace JSON")
    parser.add_argument("--record", action="store_true",
                        help="append the summary to benchmarks/e2e/results/history.jsonl")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.setup_samples < 1:
        parser.error("--setup-samples must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    bootstrap_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.e2e: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.all:
        passthrough = [arg for arg in (argv if argv is not None else sys.argv[1:]) if arg != "--all"]
        codes = [
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name] + passthrough,
                cwd=ROOT, check=False,
            ).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    from benchmarks.e2e import harness  # imports NumPy: only after the bootstrap

    if args.setup_child:
        return harness.setup_child(args)
    return harness.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
