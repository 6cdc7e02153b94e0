"""Import budget: a process loads what it runs, checked in fresh interpreters.

pytest's own process has imported most of the repo (and, for the EI
bit-identity test, ``scipy.stats``), so every check here starts a new
interpreter and reads its ``sys.modules`` or its ``-X importtime`` trace.
The rule the budget pins (DESIGN.md, "Cold start"): an import may leave
module level only if no benchmark workload executes the code behind it.
"""

import json
import subprocess
import sys

import pytest

from benchmarks.cold_start import fresh_interpreter_env, import_times

SCIPY = ("scipy",)
OPTIMIZERS = ("repro.core", "repro.optim", "repro.experiments")


def _modules_after(statement):
    """``sys.modules`` of a fresh interpreter that ran ``statement``."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_interpreter_env(),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded(modules, prefixes):
    """Loaded modules that are, or sit under, any of ``prefixes``."""
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def test_local_cosearch_loads_what_it_runs_and_no_more():
    modules = _modules_after(
        "from repro.experiments.harness import build_optimizer\n"
        "build_optimizer('unico', 'edge', 'mobilenetv2', 'smoke', seed=0)"
    )
    # honesty clause: the GP fit runs these on every workload, so deferring
    # them would only move their cost out of the timed set-up
    assert {"scipy.optimize", "scipy.linalg"} <= modules
    unwanted = (
        "scipy.stats", "scipy.ndimage", "scipy.interpolate", "scipy.integrate",
        "repro.utils.prom", "repro.obs.profile", "repro.obs.chrome", "repro.hub",
        # the figure and table harnesses: no package __init__ loads its siblings
        *(f"repro.experiments.fig{number}" for number in range(7, 12)),
        "repro.experiments.tables", "repro.experiments.paper_runner",
        # one mapping job per network: only a '+'-joined workload runs it
        "repro.core.multiworkload",
        # the learned tool and screen, and the baselines: only a search
        # that selects one loads it
        "repro.learned", "repro.core.baselines",
    )
    assert not _loaded(modules, unwanted)


@pytest.mark.parametrize("module", ["repro.costmodel.service", "repro.cli"])
def test_replica_and_cli_load_no_scipy_and_no_optimizer(module):
    """What a service replica, and every CLI command's parser, starts from."""
    modules = _modules_after(f"import {module}")
    assert not _loaded(modules, SCIPY + OPTIMIZERS)


@pytest.mark.parametrize("command", [["networks"], ["serve", "--help"]])
def test_light_cli_commands_never_import_scipy(command):
    """``import_times`` raises unless the command exits 0."""
    imported = [module for module, _self_us in import_times(["-m", "repro.cli", *command])]
    assert "repro.workloads" in imported  # the trace is of the CLI, not empty
    assert not _loaded(imported, SCIPY)
