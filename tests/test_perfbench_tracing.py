"""The benchmark reaches ecoprod by name, so a rename there breaks benchmark
runs while every other test passes.  The traced benchmark wraps functions by
module attribute name (`cli.stage_*`, `dataset.load_complaints`,
`dataset.build_feature_matrix`, the six causal estimators, ...), and the
`causal-bootstrap` workload builds its options with
`cli.PipelineConfig.from_dict` and calls `cli.stage_causal` with seven
positional arguments.  Each test runs `perfbench/` code unchanged, in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prepare the causal-bootstrap inputs and make its timed causal call, with
# cli.stage_causal replaced by a check that its signature binds the call.
CAUSAL_CALL = """
import inspect, sys
from pathlib import Path
import workloads
from ecoprod import cli

signature = inspect.signature(cli.stage_causal)
bound = []
cli.stage_causal = lambda *args, **kwargs: bound.append(signature.bind(*args, **kwargs))
inputs, out = Path(sys.argv[1], "inputs"), Path(sys.argv[1], "out")
inputs.mkdir()
out.mkdir()
workloads.prepare(workloads.CAUSAL, 11, inputs)
dict(workloads.program_calls(workloads.CAUSAL, 11, inputs, out))["causal"]()
assert len(bound) == 1 and len(bound[0].args) == 7, bound
assert isinstance(bound[0].arguments["options"], cli.CausalOptions), bound
"""


def run_in_perfbench(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])},
        capture_output=True, text=True, timeout=120,
    )


def test_tracing_install_finds_every_wrapped_name():
    result = run_in_perfbench("-c", "import tracing; tracing.install()")
    assert result.returncode == 0, result.stderr


def test_causal_workload_builds_options_and_binds_stage_causal(tmp_path):
    result = run_in_perfbench("-c", CAUSAL_CALL, str(tmp_path))
    assert result.returncode == 0, result.stderr
