"""Where a fresh interpreter's start-up goes: ``-X importtime`` by package.

::

    python3 benchmarks/cold_start.py                 # the e2e set-up child
    python3 benchmarks/cold_start.py -m repro.cli networks

Runs the command (default: ``benchmarks/e2e/run.py --setup-child``, the
process ``setup_s`` times) in a fresh interpreter under ``-X importtime``
and sums each module's *self* time into its package, so a cold-start
regression names its module in the CI log.  ``-X importtime`` itself slows
imports by roughly a fifth; read shares, and the slowest modules, not the
total.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SETUP_CHILD = [
    str(ROOT / "benchmarks" / "e2e" / "run.py"), "--setup-child",
    "--workload", "local_inner", "--search-seed", "0",
]
_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| +(\S+)$")


def fresh_interpreter_env() -> Dict[str, str]:
    """This environment with ``src`` first on the path and the hash seed the
    benchmark fixes (unset, ``run.py`` re-executes itself to set it)."""
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src") + (os.pathsep + inherited if inherited else ""),
    )


def import_times(arguments: List[str]) -> List[Tuple[str, int]]:
    """``(module, self microseconds)`` for every import the command makes."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime"] + arguments,
        cwd=ROOT, env=fresh_interpreter_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"command failed (exit {done.returncode}):\n{done.stderr[-2000:]}")
    return [
        (match.group(2), int(match.group(1)))
        for match in map(_LINE.match, done.stderr.splitlines())
        if match
    ]


def package_of(module: str) -> str:
    """The row a module's self time is summed into."""
    parts = module.split(".")
    if parts[0] == "scipy":
        return ".".join(parts[:2])
    if parts[0] in ("numpy", "repro", "benchmarks"):
        return parts[0]
    return "stdlib+other"


def main(arguments: List[str]) -> int:
    """Print the per-package table and the ten slowest modules."""
    times = import_times(arguments or SETUP_CHILD)
    by_package: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for module, self_us in times:
        row = by_package[package_of(module)]
        row[0] += self_us
        row[1] += 1
    total_us = sum(self_us for _module, self_us in times)
    print(f"{'package':<32}{'modules':>8}{'self ms':>10}{'share':>8}")
    for package, (self_us, count) in sorted(by_package.items(), key=lambda kv: -kv[1][0]):
        print(f"{package:<32}{count:>8}{self_us / 1e3:>10.1f}{self_us / total_us:>8.1%}")
    print(f"{'total':<32}{len(times):>8}{total_us / 1e3:>10.1f}")
    print("slowest modules (self ms):")
    for module, self_us in sorted(times, key=lambda item: -item[1])[:10]:
        print(f"  {self_us / 1e3:8.1f}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
