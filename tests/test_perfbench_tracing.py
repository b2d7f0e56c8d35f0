"""The benchmark reaches ecoprod by name, so a rename there breaks benchmark
runs while every other test passes.  The traced benchmark wraps functions by
module attribute name (`cli.stage_*`, `dataset.load_complaints`,
`dataset.build_feature_matrix`, the six causal estimators, ...), and the
`causal-bootstrap` workload builds its options with
`cli.PipelineConfig.from_dict` and calls `cli.stage_causal` with seven
positional arguments.  The `gbm.trees_grown` and `gbm.tree_nodes` counters
read each trained model through `gbm.model_to_json`.  Each test runs
`perfbench/` code unchanged, in a fresh interpreter."""

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

# The benchmark's tree and node counts of a trained classifier and regressor,
# against a direct count over `model.trees`.
MODEL_COUNTERS = """
import numpy as np
import tracing
from ecoprod import gbm

def nodes(node):
    return 1 if "weight" in node else 1 + nodes(node["left"]) + nodes(node["right"])

rng = np.random.default_rng(0)
x = rng.standard_normal((60, 3))
config = gbm.TrainConfig(rounds=4, max_depth=3)
for model in (gbm.train_classifier(x, (x[:, 0] > 0).astype(float), config), gbm.train_regressor(x, x[:, 1], config)):
    expected = {"trees": len(model.trees), "nodes": sum(nodes(tree) for tree in model.trees)}
    assert expected["trees"] == 4 and expected["nodes"] > 4, expected
    counted = tracing._model_counters(model)
    assert counted == expected, (counted, expected)
"""

# A traced pipeline over a tiny synth fixture: the tracer must still see the
# complaint loads, the megabytes they parse and the feature-matrix builds.
TRACED_PIPELINE = """
import json, sys
from pathlib import Path
import tracing
from ecoprod import cli

work = Path(sys.argv[1])
assert cli.main(["synth", "--out", str(work), "--provinces", "8", "--complaints", "60", "--clusters", "2",
                 "--embedding-dim", "4", "--seed", "3"]) == 0
config = {
    "inputs": {"provinces": "provinces.csv", "complaints": "complaints.jsonl"},
    "cluster": {"k": 2, "permutations": 2},
    "train": {"rounds": 3, "max_depth": 2, "folds": 2},
    "causal": {"methods": ["diffmeans", "s"], "bootstrap": 0, "base_learner": {"rounds": 3}},
}
(work / "config.json").write_text(json.dumps(config))
tracer = tracing.install()
assert cli.main(["pipeline", "--config", str(work / "config.json")]) == 0
metrics = tracer.metrics(0.0)
assert metrics["dataset.load_complaints_calls"] > 0, metrics
assert metrics["dataset.complaints_mb_parsed"] > 0, metrics
assert metrics["dataset.build_feature_matrix_s"] > 0, metrics
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


def test_tree_counters_count_the_trained_trees_and_nodes():
    result = run_in_perfbench("-c", MODEL_COUNTERS)
    assert result.returncode == 0, result.stderr


def test_traced_pipeline_sees_the_loaders(tmp_path):
    result = run_in_perfbench("-c", TRACED_PIPELINE, str(tmp_path))
    assert result.returncode == 0, result.stderr
