"""Eco-efficiency and co-production analytics.

Library + batch CLI covering four stages: efficiency scoring of
decision-making units via linear programming, spectral clustering of
complaint embeddings, gradient-boosted co-production prediction with exact
Shapley attributions, and treatment-effect estimation (latent-confounder
VAE plus S/T/X/R meta-learners), verified end to end on synthetic data
with planted ground truth.

The API lives in the modules (`ecoprod.dea`, `ecoprod.dataset`,
`ecoprod.gbm`, ...); import each name from its own.
"""
