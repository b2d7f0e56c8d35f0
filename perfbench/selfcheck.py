"""Self-check of the benchmark's output checks, at toy sizes (about half a minute).

    python3 perfbench/selfcheck.py

For each workload it writes a toy fixture, runs the workload's program calls
once, and requires every check to pass on the genuine artifacts (a band
check sees the planted effect in place of its toy-size estimate).  Then, for
each check, it corrupts a copy of the artifact the check reads (one phi moved
by 1e-6, two complaints' cluster labels swapped, one score nudged, ...) and
requires that check to fail.  Exits 0 when every check passes on genuine
output and fails on its corruption.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import fixtures
import workloads
from run import HERE, ROOT, WORK, import_ecoprod

SEED = 5
TOY = {
    "pipeline": fixtures.FixtureSpec(27, 120, 8, 16),
    "cluster": fixtures.FixtureSpec(27, 160, 8, 16),
    "causal-bootstrap": fixtures.FixtureSpec(60, 150, 8, 8),
}


def _edit_csv(path: Path, edit) -> None:
    """Apply `edit(rows)` to a CSV file; rows[0] is the header."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _nudge(rows, row: int, col: int, delta: float) -> None:
    rows[row][col] = repr(float(rows[row][col]) + delta)


def _flip_group(rows) -> None:
    rows[1][3] = "Low" if rows[1][3] == "High" else "High"


def _crs_above_vrs(rows) -> None:
    rows[1][1] = repr(float(rows[1][2]) + 1e-6)


def _swap_two_labels(rows) -> None:
    first = rows[1]
    other = next(r for r in rows[2:] if r[1] != first[1])
    first[1], other[1] = other[1], first[1]


def _move_phi(rows) -> None:
    """Shift attribution between two features of one row; additivity still holds."""
    _nudge(rows, 1, 3, 1e-6)
    _nudge(rows, 1, 4, -1e-6)


def _nudge_first_leaf(model) -> None:
    node = model["trees"][0]
    while "weight" not in node:
        node = node["left"]
    node["weight"] += 1e-6


def _set_permutation_p(report) -> None:
    report["permutation"]["p"] = 0.05


def _nudge_rate(report) -> None:
    report["coproduction_rates"][0] += 1e-6


def _bump_k(report) -> None:
    report["k"] += 1


def _nudge_total_ss(report) -> None:
    report["wcss_curve"]["1"] *= 1 + 1e-6


def _halve_accuracy(report) -> None:
    report["mean_accuracy"] = 0.5


def _set_ate(method: str, value: float):
    def edit(report):
        report[method]["ate"] = value
    return edit


def _shift_ate(method: str, delta: float):
    def edit(report):
        report[method]["ate"] += delta
    return edit


# check name -> (artifact, corruption applied to the artifact's path)
CORRUPTIONS = {
    "dea.theta_vrs": ("dea_scores.csv", lambda p: _edit_csv(p, lambda rows: _nudge(rows, 1, 2, 1e-6))),
    "dea.groups": ("dea_scores.csv", lambda p: _edit_csv(p, _flip_group)),
    "dea.crs_le_vrs": ("dea_scores.csv", lambda p: _edit_csv(p, _crs_above_vrs)),
    "cluster.ari": ("clusters.csv", lambda p: _edit_csv(p, _swap_two_labels)),
    "cluster.permutation_p": ("cluster_report.json", lambda p: _edit_json(p, _set_permutation_p)),
    "cluster.rates": ("cluster_report.json", lambda p: _edit_json(p, _nudge_rate)),
    "cluster.elbow": ("cluster_report.json", lambda p: _edit_json(p, _bump_k)),
    "cluster.total_ss": ("cluster_report.json", lambda p: _edit_json(p, _nudge_total_ss)),
    "explain.margin_walk": ("model.json", lambda p: _edit_json(p, _nudge_first_leaf)),
    "explain.additivity": ("shap.csv", lambda p: _edit_csv(p, lambda rows: _nudge(rows, 1, 3, 1e-6))),
    "explain.brute_force_shapley": ("shap.csv", lambda p: _edit_csv(p, _move_phi)),
    "train.cv_accuracy": ("cv_report.json", lambda p: _edit_json(p, _halve_accuracy)),
    "causal.diffmeans_province": ("ate_report.json", lambda p: _edit_json(p, _shift_ate("diffmeans", 1e-9))),
    "causal.diffmeans_message": ("ate_report.json", lambda p: _edit_json(p, _shift_ate("diffmeans", 1e-9))),
    **{f"causal.band.{m}": ("ate_report.json", lambda p, m=m: _edit_json(p, _set_ate(m, fixtures.TRUE_ATE + 0.5)))
       for m in workloads.CAUSAL_METHODS[1:]},
}


def determinism_check(reference: str, files: tuple[str, ...]):
    def check(out: Path, truth: dict) -> str:
        digest = checks.digest([out / f for f in files])
        return checks.require(digest == reference, "digest differs from the first run")
    return check


def main() -> int:
    import_ecoprod(ROOT)
    problems = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        scratch = Path(scratch)
        for name, spec in TOY.items():
            workload = dataclasses.replace(workloads.WORKLOADS[name], spec=spec)
            inputs, out = scratch / name / "inputs", scratch / name / "out"
            out.mkdir(parents=True)
            truth = workloads.prepare(workload, SEED, inputs)
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(SEED),
                 "--inputs", str(inputs), "--out", str(out), "--trace", "0", "--result", str(out.parent / "r.json")],
                check=True, capture_output=True,
            )
            calls = json.loads((out.parent / "r.json").read_text(encoding="utf-8"))["calls"]
            if not all(c["ok"] for c in calls):
                problems.append(f"{name}: a program call failed at toy size")
                continue
            all_checks = workloads.output_checks(workload, inputs) + [
                ("determinism", determinism_check(checks.digest([out / f for f in workload.digest_files]),
                                                  workload.digest_files)),
            ]
            for check_name, check in all_checks:
                genuine, corrupted = scratch / name / "genuine", scratch / name / "corrupted"
                for copy in (genuine, corrupted):
                    shutil.rmtree(copy, ignore_errors=True)
                    shutil.copytree(out, copy)
                    if check_name.startswith("causal.band."):
                        # toy-size estimates are too noisy for the bands, so the
                        # genuine report carries the planted effect for this method
                        _edit_json(copy / "ate_report.json", _set_ate(check_name.split(".")[-1], fixtures.TRUE_ATE))
                try:
                    check(genuine, truth)
                except Exception as exc:  # noqa: BLE001
                    problems.append(f"{name} {check_name}: fails on genuine output ({exc})")
                    continue
                if check_name == "determinism":
                    target = corrupted / workload.digest_files[0]
                    target.write_bytes(target.read_bytes() + b" ")
                else:
                    artifact, corrupt = CORRUPTIONS[check_name]
                    corrupt(corrupted / artifact)
                try:
                    check(corrupted, truth)
                    problems.append(f"{name} {check_name}: passes on corrupted output")
                except Exception as exc:  # noqa: BLE001
                    print(f"caught {name} {check_name}: {exc}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
