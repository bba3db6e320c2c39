"""Benchmark of gdesprit: three workloads, each in a process of its own.

Usage, from the root of a checkout (no install needed; ``src/`` is put on
the path by the worker)::

    python3 perfbench/run.py --workload noise_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--trace 0`` the workload runs untraced in ``PROCESSES`` fresh
processes one after another, each timing operations for an equal share of
``--seconds``, and the end-to-end metrics pool them: medians over every
operation and over the processes' set-up times.  Several processes rather
than one long one, so that a run samples several placements of its threads
on the shared machine.  With ``--trace 1`` one traced process reports the
per-layer metrics and writes its spans under ``.perfbench_out/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check of
every workload passed.

This file needs only the standard library; numpy, scipy and gdesprit are
imported by the worker processes alone.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PROCESSES = 3
# A run must end within this many seconds, building nothing.
DEADLINE_S = 170
_worker_ids = itertools.count()


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}-{next(_worker_ids)}"
    result_path = OUT / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(OUT / "work" / tag), "--result", str(result_path),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        # Worker stdout carries the CLI's own messages, which nobody reads here.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker did not finish before the deadline") from None
    if not result_path.exists():
        raise WorkerFailed(f"{workload}: worker exited with code {proc.returncode} and no result")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if trace:
        return run_worker(workload, seed, seconds, 1, deadline)
    parts = []
    for _ in range(PROCESSES):
        part = run_worker(workload, seed, seconds / PROCESSES, 0, deadline)
        if not part["correct"]:
            return part
        parts.append(part)
    walls = [w for p in parts for w in p["walls"]]
    return {
        "correct": True,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "op_s": statistics.median(walls),
            "estimates_per_s": sum(p["estimates"] for p in parts) / sum(walls),
            "cpu_s_per_op": statistics.median(c for p in parts for c in p["cpus"]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        },
    }


def with_units(result: dict, units: dict[str, str]) -> dict:
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result.get("metrics", {}).items()
    }
    return out


def main(argv=None) -> int:
    # BENCHMARK.json is the one list of workloads, metrics and units.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    parser = argparse.ArgumentParser(description="Benchmark of gdesprit.")
    parser.add_argument("--workload", choices=workload_names, help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0 untraced, 1 traced (default: both)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gdesprit" / "__init__.py").is_file():
        print(f"no gdesprit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else workload_names
    traces = [args.trace] if args.trace is not None else [0, 1]
    single = len(workloads) == 1 and len(traces) == 1
    results = {}
    try:
        for workload, trace in itertools.product(workloads, traces):
            deadline = time.monotonic() + DEADLINE_S
            raw = run_workload(workload, args.seed, args.seconds, trace, deadline)
            if not raw["correct"]:
                print(f"error: {workload}: check failed: {raw['error']}", file=sys.stderr)
            result = with_units(raw, units)
            results[f"{workload}/trace{trace}"] = result
            if not single:
                print(f"{workload} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for name, m in result["metrics"].items():
                    print(f"  {name} = {m['value']:.6g} {m['unit']}")
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / f"results-seed{args.seed}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(next(iter(results.values())) if single else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
