"""A/A check: run the whole benchmark in interleaved sets on the same code.

::

    python3 benchmarks/e2e/aa.py [--sets 2] [--trace 0]

Set *i* runs every workload once with ``--seed i`` (A1 B1 C1 D1 A2 B2 ...),
so drift over the session lands in every workload alike.  Per metric and
workload it prints every set's value, the relative difference
``(max - min) / median`` and, from three sets up, the quartile spread the
driver computes (``statistics.quantiles(values, n=4)``: ``(q3 - q1) /
median``).  The verdict column judges end-to-end metrics against their own
bound (on the quartile spread when there is one, else on the relative
difference) and count-valued layer metrics on exact equality; other layer
metrics are shown, not judged.  Exit code 1 if anything fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
sys.path[:0] = [str(ROOT)]

from benchmarks.e2e import metrics as M  # noqa: E402 - needs the repo root on sys.path
from benchmarks.e2e.run import WORKLOAD_NAMES  # noqa: E402


def run_once(workload: str, seed: int, passthrough: List[str]) -> Dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed)] + passthrough
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark exited {done.returncode}")
    report = json.loads(done.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def judge(metric: M.Metric, values: List[float]) -> Dict:
    """Relative difference, quartile spread and verdict of one metric's values."""
    middle = statistics.median(values)
    scale = abs(middle) if middle else 1.0
    row = {"range": (max(values) - min(values)) / scale, "iqr": None, "verdict": ""}
    if len(values) >= 3:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        row["iqr"] = (q3 - q1) / scale
    if metric.bound is not None:
        spread = row["range"] if row["iqr"] is None else row["iqr"]
        row["verdict"] = "PASS" if spread <= metric.bound else "FAIL"
    elif metric.unit == "count" or metric is M.FAILED_SHARE:
        row["verdict"] = "PASS" if max(values) == min(values) else "FAIL"
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.aa", description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="passed to every run; 0 repeats the driver's own check")
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be >= 2")
    passthrough = [] if args.trace is None else ["--trace", str(args.trace)]

    runs: Dict[str, List[Dict]] = {name: [] for name in WORKLOAD_NAMES}
    for seed in range(args.sets):
        for name in WORKLOAD_NAMES:
            print(f"set {seed + 1}/{args.sets}: {name}", file=sys.stderr, flush=True)
            runs[name].append(run_once(name, seed, passthrough))

    failures = 0
    for name in WORKLOAD_NAMES:
        print(f"\n{name}")
        print(f"  {'metric':<32} {'range':>9} {'iqr':>9} {'bound':>7} {'':<5} values")
        for metric in M.END_TO_END + (M.FAILED_SHARE,) + M.PER_LAYER:
            if metric.name not in runs[name][0]:
                continue
            values = [run[metric.name] for run in runs[name]]
            row = judge(metric, values)
            failures += row["verdict"] == "FAIL"
            iqr = "" if row["iqr"] is None else f"{row['iqr']:.2%}"
            bound = "" if metric.bound is None else f"{metric.bound:.0%}" if metric.bound >= 0.01 else "exact"
            shown = " ".join(f"{value:.6g}" for value in values)
            print(f"  {metric.name:<32} {row['range']:>9.2%} {iqr:>9} {bound:>7} "
                  f"{row['verdict']:<5} {shown}")
    print(f"\n{'FAIL' if failures else 'PASS'}: {failures} metric/workload pairs outside "
          f"their bound over {args.sets} sets")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
