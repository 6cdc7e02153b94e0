"""Smoke-execute the fastest example scripts.

Guards the public-API surface the examples exercise; the slower examples
(full co-search demos) are covered indirectly by the experiment tests.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "rest_service.py",
    "bottleneck_analysis.py",
    "multi_workload.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_all_examples_have_docstrings_and_main():
    for script in EXAMPLES_DIR.glob("*.py"):
        source = script.read_text()
        assert source.startswith("#!/usr/bin/env python"), script.name
        assert '"""' in source.split("\n", 2)[1] + source, script.name
        assert 'if __name__ == "__main__":' in source, script.name
