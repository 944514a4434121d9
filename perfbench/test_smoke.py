"""Smoke test of the benchmark itself at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that inputs follow the seed, that the first group of every
workload passes its output checks, that tracing restores what it wraps, and
that the command line keeps its contract, including the refusal to run
without the superfact sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from superfact import cli, verification  # noqa: E402


def test_inputs_follow_the_seed():
    for workload in wl.WORKLOADS:
        assert wl.group(workload, 7, 0, 1) == wl.group(workload, 7, 0, 1)
        assert wl.group(workload, 7, 0, 1) != wl.group(workload, 8, 0, 1)
        assert wl.group(workload, 7, 0, 1) != wl.group(workload, 7, 1, 1)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_first_group_passes_its_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "VERIFY_SAMPLES", 200)
    runner = run.Runner(tmp_path, wl, cli)
    times, work, outcomes = run.run_groups(runner, [wl.group(workload, 3, 0, 0)], first=True)
    assert runner.attempted >= len(times) > 0
    assert runner.failed == 0, runner.problems
    assert work > 0


def test_unreachable_request_must_write_nothing(tmp_path):
    cmd = wl.group("trace", 3, 0, 0)[1]
    assert cmd.kind == "unreachable"
    (tmp_path / "x.csv").write_text("t\n")
    assert wl.check(cmd, cli.EXIT_NO_SOLUTION, str(tmp_path / "x")).failed == 1


def test_tracing_wraps_every_binding_and_restores_them(tmp_path):
    original = verification.gradient_batch
    tracer = tracing.Tracer()
    argv = ["verify", "--system", "sphere", "--gamma", "2", "--samples", "50",
            "--seed", "1", "--out", str(tmp_path / "v")]
    with tracing.installed(tracer):
        assert verification.gradient_batch is not original
        with tracer.span(tracing.COMMAND_SPAN):
            assert cli.main(argv) == 0
    assert verification.gradient_batch is original
    by_name, by_layer = tracing.summarize(tracer)
    assert by_name["phase.gradient_batch"]["calls"] > 0
    assert by_name["verification.independence_report"]["calls"] == 2
    command = by_name[tracing.COMMAND_SPAN]
    assert 0 < command["self_s"] < command["s"]
    assert by_layer["cli"]["busy_s"] == pytest.approx(command["s"])


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_line_contract(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
