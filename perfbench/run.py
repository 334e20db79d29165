"""Benchmark of cosmo: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surgery_sweep --seed 1 --seconds 25 --trace 0

Workloads: surgery_sweep, skein_invariants, seifert_tau, cli_calls (see
README.md).  The workload and metric names and units are read from
``BENCHMARK.json`` at the root of the checkout.  Each run starts a fresh worker interpreter with a fixed
environment.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details that are not metrics (rounds, wall-clock counterparts, the
trace file).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, half the time each, untraced and then traced, and reports
the per-layer metrics plus ``tracing_overhead``, the untraced over the
traced items per CPU second.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

# wall seconds after which a worker's timed phase stops, and after which it is killed
CAP_S, TRACED_CAP_S = 120, 70
KILL_S, TRACED_KILL_S = 170, 85


def child_env(root: Path) -> dict[str, str]:
    """The environment of every process the benchmark starts: no bytecode is
    written (so every interpreter compiles cosmo afresh, as a cold start
    does) and the hash seed is fixed."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONUTF8": "1",
    }


def spec(root: Path) -> dict:
    """BENCHMARK.json: the workload names and the metric names and units."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metrics_as_specified(values: dict[str, float], specified: list[dict]) -> dict[str, dict]:
    """The metrics by name and unit; the worker must report exactly the
    metrics that BENCHMARK.json lists."""
    names = [m["name"] for m in specified]
    if sorted(values) != sorted(names):
        raise KeyError(f"reported metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specified}


def run_worker(root: Path, args, seconds: float, cap: float, kill: float, traced: bool) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--cap", str(cap),
    ]
    if traced:
        cmd.append("--traced")
    # a session of its own, so a timeout can stop the worker and its CLI children together
    proc = subprocess.Popen(cmd, env=child_env(root), cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=kill)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "cosmo" / "__init__.py").is_file():
        print(f"perfbench: no cosmo sources under {root / 'src'}", file=sys.stderr)
        return 2
    benchmark = spec(root)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.trace == 0:
            reports = [run_worker(root, args, args.seconds, CAP_S, KILL_S, traced=False)]
            values = {m["name"]: reports[0][m["name"]] for m in benchmark["end_to_end"]}
            metrics = metrics_as_specified(values, benchmark["end_to_end"])
        else:
            half = args.seconds / 2
            reports = [
                run_worker(root, args, half, TRACED_CAP_S, TRACED_KILL_S, traced=False),
                run_worker(root, args, half, TRACED_CAP_S, TRACED_KILL_S, traced=True),
            ]
            values = dict(reports[1]["per_layer"])
            values["tracing_overhead"] = reports[0]["items_per_s"] / reports[1]["items_per_s"]
            metrics = metrics_as_specified(values, benchmark["per_layer"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    details = {
        key: [r.get(key) for r in reports]
        for key in ("slowdown", "raw", "rounds", "wall_s", "items_per_wall_s", "trace_file", "problems")
    }
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
