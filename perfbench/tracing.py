"""Span tracing of ecoprod's public functions, installed from outside the package.

`install()` replaces module attributes with timing wrappers.  A name bound by
`from ... import` is a second reference, so it is wrapped in the importing
module too (causal's bindings of the gbm trainers, gbm's binding of kmeans).
Each span records its name, start, end and parent; self time is a span's
duration minus the durations of its direct children.  Counters come from
arguments, return values and log records, never from edits to ecoprod.
Spans stay in memory until `metrics()` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import logging
import os
import time
import tracemalloc
from dataclasses import dataclass, field

from workloads import CAUSAL_METHODS

BOOTSTRAPS = ("causal.bootstrap_ci", "causal.percentile_bootstrap_mean", "causal.bootstrap_group_diff_ci")
SVG_WRITERS = ("svg.pca_2d", "svg.scatter_svg", "svg.bar_svg", "svg.beeswarm_svg")

# metric name -> the span names whose time it sums; each also gets a self time
TIMED = {
    "cli.stage_dea_s": ("cli.stage_dea",),
    "cli.stage_cluster_s": ("cli.stage_cluster",),
    "cli.stage_train_s": ("cli.stage_train",),
    "cli.stage_explain_s": ("cli.stage_explain",),
    "cli.stage_causal_s": ("cli.stage_causal",),
    "dataset.load_complaints_s": ("dataset.load_complaints",),
    "dataset.build_feature_matrix_s": ("dataset.build_feature_matrix",),
    "lp.solve_s": ("lp.solve",),
    "dea.dea_scores_s": ("dea.dea_scores",),
    "spectral.similarity_s": ("spectral.similarity",),
    "spectral.normalized_laplacian_s": ("spectral.normalized_laplacian",),
    "spectral.spectral_embed_s": ("spectral.spectral_embed",),
    "spectral.kmeans_s": ("spectral.kmeans",),
    "spectral.wcss_curve_s": ("spectral.wcss_curve",),
    "spectral.silhouette_score_s": ("spectral.silhouette_score",),
    "spectral.permutation_test_s": ("spectral.permutation_test",),
    "gbm.train_classifier_s": ("gbm.train_classifier",),
    "gbm.train_regressor_s": ("gbm.train_regressor",),
    "gbm.predict_margin_s": ("gbm.predict_margin",),
    "gbm.cross_validate_s": ("gbm.cross_validate",),
    "treeshap.tree_shap_s": ("treeshap.tree_shap",),
    "causal.bootstrap_ci_s": BOOTSTRAPS,
    "causal.cevae_fit_s": ("causal.cevae_fit",),
    "causal.cevae_unit_effects_s": ("causal.cevae_unit_effects",),
    "autodiff.backward_s": ("autodiff.backward",),
    "svg.render_s": SVG_WRITERS,
}
# metric name -> the span names whose calls it counts
CALLS = {
    "dataset.load_complaints_calls": ("dataset.load_complaints",),
    "lp.solve_calls": ("lp.solve",),
    "spectral.spectral_embed_calls": ("spectral.spectral_embed",),
    "spectral.kmeans_calls": ("spectral.kmeans",),
    "gbm.train_classifier_calls": ("gbm.train_classifier",),
    "gbm.train_regressor_calls": ("gbm.train_regressor",),
    "treeshap.tree_shap_calls": ("treeshap.tree_shap",),
    "autodiff.adam_steps": ("autodiff.adam_step",),
}
# metric name -> counter key summed over spans
COUNTERS = {
    "dataset.complaints_mb_parsed": "mb_parsed",
    "spectral.kmeans_iterations": "iterations",
    "gbm.trees_grown": "trees",
    "gbm.tree_nodes": "nodes",
    "treeshap.rows_attributed": "rows",
    "causal.bootstrap_replicates": "replicates",
    "causal.cevae_epochs": "epochs",
}


def self_name(metric: str) -> str:
    return metric[: -len("_s")] + "_self_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TIMED:
        units[name] = "s"
        units[self_name(name)] = "s"
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in COUNTERS})
    units["dataset.complaints_mb_parsed"] = "MB"
    units["spectral.spectral_cluster_peak_mb"] = "MB"
    units["causal.bootstrap_failures"] = "count"
    units["causal.propensity_clips"] = "count"
    units.update({f"causal.method_s.{m}": "s" for m in CAUSAL_METHODS})
    units["trace.wall_s"] = "s"
    units["trace.spans"] = "count"
    return units


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    tag: str | None = None
    counters: dict = field(default_factory=dict)


class _LogCounter(logging.Handler):
    """Counts ecoprod.causal's replicate-failure and propensity-clip records."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.failures = 0
        self.clips = 0

    def emit(self, record):
        message = str(record.msg)
        if message.startswith("bootstrap replicate"):
            self.failures += 1
        elif message.startswith("propensity: clipped"):
            self.clips += int(record.args[0])


def _json_nodes(node: dict) -> int:
    if "weight" in node:
        return 1
    return 1 + _json_nodes(node["left"]) + _json_nodes(node["right"])


def _model_counters(result) -> dict:
    """Tree and node counts read through the documented model.json schema."""
    from ecoprod.gbm import model_to_json

    trees = model_to_json(result)["trees"]
    return {"trees": len(trees), "nodes": sum(_json_nodes(t) for t in trees)}


def _replicates(position: int):
    def count(args, kwargs, result) -> dict:
        n_boot = kwargs["n_boot"] if "n_boot" in kwargs else args[position] if len(args) > position else 200
        return {"replicates": int(n_boot)}
    return count


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.log = _LogCounter()
        self.peak_mb: float | None = None

    def wrap(self, owner, attr: str, name: str, counters=None, tag=None, track_memory=False):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1)
            span.tag = tag(args, kwargs) if callable(tag) else tag
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            # tracemalloc slows every allocation, so only the first call is
            # measured; within a run every call has the same size
            measure = track_memory and tracer.peak_mb is None
            if measure:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if measure:
                    tracer.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                tracer._stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def metrics(self, wall_s: float) -> dict[str, float]:
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] = children.get(span.parent, 0.0) + (span.end - span.start)
        by_name: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            by_name.setdefault(span.name, []).append(index)

        def outermost(indices: list[int], names: set) -> list[int]:
            keep = []
            for index in indices:
                parent = self.spans[index].parent
                while parent >= 0 and self.spans[parent].name not in names:
                    parent = self.spans[parent].parent
                if parent < 0:
                    keep.append(index)
            return keep

        out: dict[str, float] = {}
        for metric, names in TIMED.items():
            indices = [i for n in names for i in by_name.get(n, [])]
            top = outermost(indices, set(names))
            out[metric] = sum(self.spans[i].end - self.spans[i].start for i in top)
            out[self_name(metric)] = sum(
                self.spans[i].end - self.spans[i].start - children.get(i, 0.0) for i in indices
            )
        for metric, names in CALLS.items():
            out[metric] = float(sum(len(by_name.get(n, [])) for n in names))
        for metric, key in COUNTERS.items():
            indices = [i for i, s in enumerate(self.spans) if key in s.counters]
            if key == "replicates":  # a bootstrap inside another resamples nothing new
                indices = outermost(indices, set(BOOTSTRAPS))
            out[metric] = float(sum(self.spans[i].counters[key] for i in indices))
        for method in CAUSAL_METHODS:
            total = 0.0
            for span in self.spans:
                if span.tag != method:
                    continue
                parent = span.parent
                while parent >= 0 and self.spans[parent].tag is None:
                    parent = self.spans[parent].parent
                if parent < 0:
                    total += span.end - span.start
            out[f"causal.method_s.{method}"] = total
        out["spectral.spectral_cluster_peak_mb"] = self.peak_mb or 0.0
        out["causal.bootstrap_failures"] = float(self.log.failures)
        out["causal.propensity_clips"] = float(self.log.clips)
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = float(len(self.spans))
        return out


def install() -> Tracer:
    """Wrap every traced function of an imported ecoprod; returns the tracer."""
    from ecoprod import autodiff, causal, cli, dataset, dea, gbm, lp, spectral, svg, treeshap

    tracer = Tracer()
    w = tracer.wrap
    for stage in ("dea", "cluster", "train", "explain", "causal"):
        w(cli, f"stage_{stage}", f"cli.stage_{stage}")
    w(dataset, "load_complaints", "dataset.load_complaints",
      counters=lambda a, k, r: {"mb_parsed": os.path.getsize(a[0]) / 1e6})
    w(dataset, "build_feature_matrix", "dataset.build_feature_matrix")
    w(lp, "solve", "lp.solve")
    w(dea, "dea_scores", "dea.dea_scores")
    for name in ("similarity", "normalized_laplacian", "spectral_embed", "wcss_curve",
                 "silhouette_score", "permutation_test"):
        w(spectral, name, f"spectral.{name}")
    w(spectral, "spectral_cluster", "spectral.spectral_cluster", track_memory=True)
    kmeans_counter = lambda a, k, r: {"iterations": r.n_iterations}  # noqa: E731
    w(spectral, "kmeans", "spectral.kmeans", counters=kmeans_counter)
    w(gbm, "kmeans", "spectral.kmeans", counters=kmeans_counter)
    for owner in (gbm, causal):
        w(owner, "train_classifier", "gbm.train_classifier", counters=lambda a, k, r: _model_counters(r))
        w(owner, "train_regressor", "gbm.train_regressor", counters=lambda a, k, r: _model_counters(r))
    w(gbm, "predict_margin", "gbm.predict_margin")
    w(gbm, "cross_validate", "gbm.cross_validate")
    w(treeshap, "tree_shap", "treeshap.tree_shap", counters=lambda a, k, r: {"rows": r.phi.shape[0]})
    w(causal, "bootstrap_ci", "causal.bootstrap_ci", counters=_replicates(2))
    w(causal, "percentile_bootstrap_mean", "causal.percentile_bootstrap_mean", counters=_replicates(1))
    w(causal, "bootstrap_group_diff_ci", "causal.bootstrap_group_diff_ci", counters=_replicates(2))
    for method, name in (("diffmeans", "diff_means"), ("s", "s_learner"), ("t", "t_learner"),
                         ("x", "x_learner"), ("r", "r_learner"), ("cevae", "cevae_ate")):
        w(causal, name, f"causal.{name}", tag=method)
    w(causal, "cevae_fit", "causal.cevae_fit", tag="cevae",
      counters=lambda a, k, r: {"epochs": len(r.loss_history)})
    w(causal, "cevae_unit_effects", "causal.cevae_unit_effects")
    if hasattr(cli, "_province_level_estimate"):
        w(cli, "_province_level_estimate", "cli.province_level_estimate",
          tag=lambda a, k: k.get("method", a[0] if a else None))
    w(autodiff, "adam_step", "autodiff.adam_step")
    w(autodiff.Tape, "backward", "autodiff.backward")
    for name in SVG_WRITERS:
        w(svg, name.split(".")[1], name)

    causal_log = logging.getLogger("ecoprod.causal")
    causal_log.addHandler(tracer.log)
    causal_log.setLevel(logging.DEBUG)
    causal_log.propagate = False
    return tracer
