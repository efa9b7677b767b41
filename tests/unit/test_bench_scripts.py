"""Command-line handling of the benchmark scripts under ``benchmarks/``.

Only argument parsing is exercised: ``--help`` and a usage error each
exit before any benchmark work starts.
"""

import pathlib
import subprocess
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
#: script -> the arguments its usage line lists after the script name.
SCRIPTS = {
    "run_serving_bench.py": "[-h] [output]",
    "run_mc_bench.py": "[-h] [output]",
    "run_memory_bench.py": "[-h] [--quick] [output]",
    "run_sweep_bench.py": "[-h] [--quick] [--perf-smoke] [output]",
    "run_fleet_bench.py": "[-h] [--quick] [--workers WORKERS] [output]",
    "run_streaming_bench.py": "[-h] [--quick] [output]",
}


def _run(script, args, cwd):
    return subprocess.run(
        [sys.executable, str(BENCHMARKS / script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("script", SCRIPTS)
def test_help_prints_usage_and_writes_nothing(script, tmp_path):
    done = _run(script, ["--help"], tmp_path)
    assert done.returncode == 0
    assert done.stdout.startswith(f"usage: {script} {SCRIPTS[script]}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_second_output_path_is_a_usage_error(script, tmp_path):
    done = _run(script, ["a.json", "b.json"], tmp_path)
    assert done.returncode == 2
    assert "unrecognized arguments: b.json" in done.stderr
    assert list(tmp_path.iterdir()) == []
