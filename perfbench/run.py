"""Repository benchmark: one command, every metric by name with its unit.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli-cold|design-space|serve-batch \
        --seed N --seconds S --trace 0|1

``--trace 0`` sets up the workload :data:`SETUP_REPEATS` times, each in
a fresh process (the median is ``setup_s``), and times the last one:
``setup_s``, ``latency_ms``, ``tail_ms``, ``ops_per_s``, ``peak_rss_mb``.
``--trace 1`` sets up once, times an untraced window, then the same
window again with the layer wrappers of ``perfbench/spans.py`` installed,
and reports the per-layer metrics plus ``trace.overhead_ms`` (traced
minus untraced ``latency_ms``).

Every line but the last is human-readable metadata; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark writes only under ``.perfbench_tmp/`` of the
checkout (including the physics disk cache it points ``REPRO_CACHE_DIR``
at) and removes it on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent / "bench.py"
WORKLOADS = ("cli-cold", "design-space", "serve-batch")
#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Budget for one child process (set-up plus window), seconds.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"


def git_sha() -> str:
    """HEAD of the checkout, read without leaving it (``unknown`` when
    the checkout is not a git repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_child(args, tmp: Path, index: int, setup_only: bool) -> dict:
    workdir = tmp / f"child{index}"
    (workdir / "cache").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env.pop("REPRO_DISK_CACHE", None)
    command = [
        sys.executable, str(BENCH),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic()
    # Its own process group, so a hung child takes its fleet worker or
    # CLI grandchildren down with it.
    proc = subprocess.Popen(
        command + ["--t0", repr(t0)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark process exceeded {CHILD_TIMEOUT_S:.0f} s")
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            result = run_child(args, tmp, 0, setup_only=False)
            setups = [result["setup_s"]]
        else:
            setups = [
                run_child(args, tmp, i, setup_only=True)["setup_s"]
                for i in range(SETUP_REPEATS - 1)
            ]
            result = run_child(args, tmp, SETUP_REPEATS - 1, setup_only=False)
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    import numpy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "digest": result["digest"],
        "setup_runs_s": setups,
        "tail": {
            "percentile": result["tail_percentile"],
            "samples": result["tail_samples"],
        },
    }
    if result["errors"]:
        meta["errors"] = result["errors"][:10]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in result["layers"].items()
        }
        meta["unmeasurable"] = result["unmeasurable"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "latency_ms": result["latency_ms"],
            "tail_ms": result["tail_ms"],
            "ops_per_s": result["ops_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print("meta " + json.dumps(meta))
    for name, metric in metrics.items():
        print(f"{name:<36s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'attempted':<36s} {result['attempted']:>14d}")
    print(f"{'failed':<36s} {result['failed']:>14d}")
    print(f"{'correct':<36s} {str(bool(result['correct'])):>14s}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
