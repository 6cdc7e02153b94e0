"""End-to-end co-search benchmark (see README.md in this directory).

Run one workload with ``PYTHONPATH=src python -m benchmarks.e2e --workload
<name> --seed <int>`` (or ``python3 benchmarks/e2e/run.py ...``, the command
``BENCHMARK.json`` records); ``--all`` runs every workload.
"""
