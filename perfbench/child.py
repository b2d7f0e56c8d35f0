"""One round of a workload in a fresh process: the program calls, timed.

Started by run.py and selfcheck.py.  The process imports ecoprod from the
checkout's `src`, optionally installs the tracer, makes the workload's calls
and writes a JSON result: per-call outcome, wall and CPU seconds over the
calls, the process's peak resident set and, when traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from run import ROOT, import_ecoprod


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM), in MB.

    Not `ru_maxrss`: Linux carries that across exec from the parent.
    """
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import_ecoprod(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    calls = workloads.program_calls(workload, args.seed, args.inputs, args.out)
    tracer = tracing.install() if args.trace else None

    outcomes = []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for name, call in calls:
        try:
            call()
            outcomes.append({"call": name, "ok": True})
        except Exception:  # noqa: BLE001 - a failing call is counted, and the round goes on
            traceback.print_exc()
            outcomes.append({"call": name, "ok": False})
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "calls": outcomes,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
