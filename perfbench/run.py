"""Benchmark for ecoprod: run a workload from a seed, check its outputs, report metrics.

    python3 perfbench/run.py --workload pipeline --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 11

Run from anywhere; ecoprod is imported from the `src` directory next to this
one.  Set-up writes the workload's inputs (five times; the median is
`setup_s`), then rounds run until the next one would overrun `--seconds`.
Each round is a fresh process making the workload's program calls; its
outputs are then checked here.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
ROUND_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_ecoprod(root: Path) -> None:
    """Import ecoprod from `root/src`, refusing any other copy."""
    src = root / "src"
    if not (src / "ecoprod" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ecoprod sources under {src}")
    sys.path.insert(0, str(src))
    import ecoprod

    if Path(ecoprod.__file__).resolve().parent != (src / "ecoprod").resolve():
        raise SystemExit(f"perfbench: imported ecoprod from {ecoprod.__file__}, not {src}")


def code_digest() -> str:
    """Identifies the program and benchmark code a determinism digest belongs to."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "ecoprod").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Output digests of earlier runs in this checkout, by workload, seed and code."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def get(self, key: str) -> str | None:
        return self.data.get(key)

    def put(self, key: str, value: str) -> None:
        self.data.setdefault(key, value)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, name: str, ok: bool, detail: str, wrong_output: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not wrong_output
            print(f"  FAIL {name}: {detail}")


def run_round(workload, seed: int, trace: int, inputs: Path, out: Path, log: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out.parent / "round.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload.name, "--seed", str(seed),
               "--inputs", str(inputs), "--out", str(out), "--trace", str(trace), "--result", str(result_path)]
    with log.open("a", encoding="utf-8") as handle:
        try:
            subprocess.run(command, stdout=handle, stderr=subprocess.STDOUT, timeout=ROUND_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            handle.write(f"round timed out after {ROUND_TIMEOUT_S} s\n")
    if not result_path.exists():
        return {"calls": [{"call": name, "ok": False} for name in workload.calls]}
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    inputs, out, log = work / "inputs", work / "out", work / "rounds.log"
    store = DigestStore(WORK / "digests.json")
    digest_key = f"{name}:{seed}:{code_digest()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            start = time.perf_counter()
            truth = workloads.prepare(workload, seed, inputs)
            setup_times.append(time.perf_counter() - start)
        checks_list = workloads.output_checks(workload, inputs)

        tally = Tally()
        rounds = []
        began = time.monotonic()
        while True:
            round_start = time.monotonic()
            result = run_round(workload, seed, trace, inputs, out, log)
            calls_ok = True
            for call in result["calls"]:
                tally.op(f"call {call['call']}", call["ok"], f"see {log}", wrong_output=False)
                calls_ok = calls_ok and call["ok"]
            for check_name, check in checks_list:
                if not calls_ok:
                    tally.op(check_name, False, "program call failed", wrong_output=False)
                    continue
                try:
                    detail = check(out, truth)
                    tally.op(check_name, True, detail, wrong_output=True)
                    if not rounds:
                        print(f"  ok {check_name}: {detail}")
                except Exception as exc:  # noqa: BLE001 - any exception is a failed check
                    tally.op(check_name, False, f"{type(exc).__name__}: {exc}", wrong_output=True)
            reference = store.get(digest_key)
            if not calls_ok:
                if reference is not None:
                    tally.op("determinism", False, "program call failed", wrong_output=False)
            else:
                digest = checks.digest([out / f for f in workload.digest_files])
                if reference is None:
                    store.put(digest_key, digest)
                else:
                    tally.op("determinism", digest == reference, f"digest {digest[:12]} != {reference[:12]}",
                             wrong_output=True)
                rounds.append(result)
                print(f"  round {len(rounds)}: wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
                      f"peak {result['peak_rss_mb']:.1f} MB")
            now = time.monotonic()
            if now - began + (now - round_start) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if not rounds:
        raise SystemExit(f"perfbench: no round of {name} completed")
    if trace:
        import tracing

        for metric, unit in tracing.metric_units().items():
            metrics[metric] = {"value": statistics.median(r["layers"][metric] for r in rounds), "unit": unit}
    else:
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[metric] = {"value": statistics.median(r[metric] for r in rounds), "unit": END_TO_END[metric]}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_ecoprod(ROOT)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"{name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        result = run_workload(name, args.seed, args.seconds, args.trace)
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
