"""Eco-efficiency and co-production analytics.

Library + batch CLI covering four stages: efficiency scoring of
decision-making units via linear programming, spectral clustering of
complaint embeddings, gradient-boosted co-production prediction with exact
Shapley attributions, and treatment-effect estimation (latent-confounder
VAE plus S/T/X/R meta-learners), verified end to end on synthetic data
with planted ground truth.
"""

from .dataset import (
    ColumnSchema,
    ComplaintRecord,
    FeatureMatrix,
    GroundTruth,
    ProvinceRecord,
    ResponseLabel,
    SyntheticSpec,
    build_feature_matrix,
    generate_synthetic,
    load_complaints,
    load_provinces,
)
from .dea import DeaOptions, DeaPanel, DeaScores, EcoGroup, ReturnsToScale, dea_scores, split_by_median
from .lp import LinearProgram, LpSolution, LpStatus, solve

__all__ = [
    "ColumnSchema",
    "ComplaintRecord",
    "DeaOptions",
    "DeaPanel",
    "DeaScores",
    "EcoGroup",
    "FeatureMatrix",
    "GroundTruth",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "ProvinceRecord",
    "ResponseLabel",
    "ReturnsToScale",
    "SyntheticSpec",
    "build_feature_matrix",
    "dea_scores",
    "generate_synthetic",
    "load_complaints",
    "load_provinces",
    "solve",
    "split_by_median",
]

__version__ = "0.1.0"
