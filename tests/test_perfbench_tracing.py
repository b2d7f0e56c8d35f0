"""The traced benchmark wraps ecoprod functions by module attribute name
(`cli.stage_*`, `dataset.load_complaints`, `dataset.build_feature_matrix`,
the six causal estimators, ...), so a rename there breaks `--trace 1` runs.
Installing the tracer in a fresh interpreter finds every such name."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracing_install_finds_every_wrapped_name():
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install()"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
