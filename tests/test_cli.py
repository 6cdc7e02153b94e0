"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_networks_command(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "resnet" in out
        assert "GMACs" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "cmaes", "bert"])


class TestRunCommand:
    def test_run_random_smoke(self, capsys):
        code = main(
            ["run", "random", "fsrcnn_120x320", "--preset", "smoke", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "simulated hours" in out

    def test_run_joined_networks_smoke(self, capsys):
        code = main(["run", "random", "fsrcnn_120x320+mobilenetv3_small", "--seed", "1"])
        assert code == 0
        assert "fsrcnn_120x320+mobilenetv3_small" in capsys.readouterr().out


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """One joint ``reproduce --only table1_edge fig10`` smoke run, shared by
    the table, figure and driver cases below: its exit code, results
    directory and printed output."""
    results = tmp_path_factory.mktemp("results")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            [
                "reproduce",
                "--only",
                "table1_edge",
                "fig10",
                "--preset",
                "smoke",
                "--seed",
                "2",
                "--results-dir",
                str(results),
            ]
        )
    return code, results, out.getvalue()


class TestTableCommand:
    def test_table_with_json_output(self, reproduced):
        """A table's JSON is written by ``reproduce --only table1_edge``."""
        code, results, _ = reproduced
        assert code == 0
        table = json.loads((results / "table1_edge.json").read_text())
        assert "bert" in table["children"]


class TestFigCommand:
    def test_fig10_json(self, reproduced):
        """A figure's JSON is written by ``reproduce --only fig10``."""
        code, results, out = reproduced
        assert code == 0
        assert json.loads((results / "fig10.json").read_text())["name"] == "fig10"
        # fig10's hasco and unico cells are table1_edge's
        assert "running fig10: 16 co-searches, 8 shared" in out


class TestReproduceCommand:
    def test_reproduce_only_table_and_fig(self, reproduced):
        code, results, _ = reproduced
        assert code == 0
        assert sorted(p.name for p in results.iterdir()) == [
            "fig10.json", "table1_edge.json"
        ]

    def test_table_and_fig_commands_are_gone(self):
        for command in ("table", "fig"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "edge"])


class TestStatsCommand:
    @pytest.fixture()
    def live_service(self, tiny_network):
        from repro.costmodel.engine import MaestroEngine
        from repro.costmodel.service import PPAServiceServer
        from repro.mapping.gemm_mapping import GemmMapping
        from repro.hw.spatial import edge_design_space

        engine = MaestroEngine(tiny_network, cache_capacity=64)
        hw = edge_design_space().sample(0)
        mapping = GemmMapping(4, 8, 4)
        engine.evaluate_layer(hw, mapping, "gemm")
        engine.evaluate_layer(hw, mapping, "gemm")  # one cache hit
        with PPAServiceServer(engine) as server:
            yield server

    def test_stats_formatted(self, live_service, capsys):
        assert main(["stats", live_service.url]) == 0
        out = capsys.readouterr().out
        assert "MaestroEngine" in out
        assert "queries          2" in out
        assert "cache hit rate   50.0%" in out
        assert "/ 64" in out

    def test_stats_json(self, live_service, capsys):
        assert main(["stats", live_service.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"]["num_queries"] == 2
        assert payload["engine"]["cache_capacity"] == 64
        assert "counters" in payload["metrics"]
        assert payload["schema_version"] == 1

    def test_stats_prom(self, live_service, capsys):
        from repro.obs.prom import parse_prometheus_text

        # prime the per-path request counters with one ordinary scrape
        assert main(["stats", live_service.url]) == 0
        capsys.readouterr()
        assert main(["stats", live_service.url, "--prom"]) == 0
        out = capsys.readouterr().out
        families = parse_prometheus_text(out)  # must be scrapeable text
        assert any(f.startswith("service_requests") for f in families)

    def test_serve_parser_accepts_cache_capacity(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "resnet50", "--cache-capacity", "0"]
        )
        assert args.cache_capacity == 0
        assert args.trace is False

    def test_serve_parser_accepts_trace(self):
        args = build_parser().parse_args(["serve", "resnet50", "--trace"])
        assert args.trace is True

    @pytest.mark.parametrize("command", [["serve"], ["fleet", "serve"]])
    def test_serve_parsers_offer_every_engine(self, command):
        for engine in ("maestro", "timeloop", "ascend"):
            args = build_parser().parse_args([*command, "resnet50", "--engine", engine])
            assert args.engine == engine


@pytest.mark.parametrize("preset", [None, "4"])
def test_module_entry_point_pins_blas_threads_unless_set(preset):
    """``python -m repro`` gives the BLAS pools one thread by default, before
    NumPy loads, and keeps a value the user set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, preset))
    code = (
        "import os, sys\n"
        "import repro\n"
        "print('numpy' in sys.modules)\n"
        "import repro.__main__\n"
        f"print([os.environ.get(name) for name in {BLAS_THREAD_VARS!r}])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    numpy_before_entry_point, values = done.stdout.splitlines()[-2:]
    assert numpy_before_entry_point == "False"
    assert values == repr([preset or "1"] * 3)
