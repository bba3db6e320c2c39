"""One workload in a process of its own: set up, time operations, check outputs.

Started by ``run.py``, never by hand.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import gdesprit`` and the building of the
workload's inputs.  The result is written as JSON to ``--result``.

The load is a closed loop: one caller, and the next operation starts only
when the previous one has returned and its output has been checked.  The
process ends with the first operation that completes after ``--seconds`` of
timed wall time.  An untraced process reports its set-up time and the wall
and CPU time of every operation; ``run.py`` combines several of them.  A
traced process alternates untraced and traced operations, always ends on a
whole pair and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    from checks import CheckFailed
    from workloads import LIBRARY_ERRORS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    attempted = failed = estimates = 0
    timed = 0.0
    try:
        workload.check_setup()
        while timed < args.seconds or (tracer is not None and attempted % 2):
            traced = tracer is not None and attempted % 2 == 1
            if traced:
                tracer.install(attempted)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                out, raised = workload.op(), False
            except LIBRARY_ERRORS:
                out, raised = None, True
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            if traced:
                tracer.uninstall()
            timed += wall
            attempted += 1
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)
            if raised or workload.check(out):
                failed += 1
            else:
                estimates += workload.estimates(out)
    except CheckFailed as exc:
        return {"correct": False, "error": str(exc), "attempted": max(attempted, 1), "failed": failed}

    result = {"correct": True, "attempted": attempted, "failed": failed}
    if tracer is None:
        result.update(
            setup_s=setup_s,
            walls=walls[False],
            cpus=cpus,
            estimates=estimates,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    else:
        metrics = tracer.layer_metrics(len(walls[True]))
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        result["metrics"] = metrics
        if args.spans is not None:
            tracer.dump(args.spans)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
