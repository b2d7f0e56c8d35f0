"""Treatment-effect estimation for binary treatment and outcome.

Two routes to the average treatment effect (ATE):

* A latent-confounder variational autoencoder: an encoder q(z | x, t, y)
  infers a Gaussian latent code; decoder heads reconstruct the covariates,
  the treatment, and the outcome under each treatment arm (two separate
  networks sharing no weights); auxiliary heads q(t | x) and q(y | x, t)
  are trained jointly.  The objective is the evidence lower bound:
  reconstruction terms plus auxiliary log-likelihoods minus
  KL(q(z | x, t, y) || N(0, I)).  The ATE averages the per-unit contrast
  p(y=1 | t=1, z) - p(y=1 | t=0, z) over posterior draws.

* Meta-learners over the boosted trees in `ecoprod.gbm`: S (single model of
  (x, t)), T (per-arm models), X (imputed per-arm effects blended by the
  propensity score), and R (residual-on-residual with cross-fitted nuisance
  models), plus the plain difference in means.

The six estimators (`diff_means`, the four learners and `cevae_ate`) take
`groups`, the group (province) id of each row, or None.  Without it the rows
are the units: the ATE is the mean per-row effect, and each bootstrap
replicate refits on resampled rows (CEVAE resamples the contrasts of its
fixed networks).  With it the groups are the units: the ATE is the mean of
the per-group mean effects of one fit, and the replicates resample those
group means; the difference in means compares the two arms' group-mean
outcomes and resamples each arm's groups.

Confidence intervals are percentile bootstrap at CI_LEVEL: the interval
endpoints are the floor(alpha/2 * B)-th and ceil((1 - alpha/2) * B)-th
order statistics of the replicate estimates (1-based, clamped to [1, B]).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import gbm
from .dataset import calibrate_treatment_shift
from .errors import BootstrapError, CausalError, EcoprodError, TrainingDivergenceError
from .gbm import (
    TrainConfig,
    predict_proba,
    stratified_folds,
    train_classifier,
    train_regressor,
)
from .seeding import derive_seed

logger = logging.getLogger(__name__)

PROPENSITY_CLIP = (0.01, 0.99)
MIN_BOOTSTRAP = 50
CI_LEVEL = 0.95


class Method(Enum):
    DIFF_MEANS = "diffmeans"
    S = "s"
    T = "t"
    X = "x"
    R = "r"
    CEVAE = "cevae"


@dataclass(frozen=True)
class CausalDataset:
    """Covariates X (n x p), binary treatment t, binary outcome y."""

    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
        t = np.asarray(self.treatment, dtype=np.int64)
        y = np.asarray(self.outcome, dtype=np.int64)
        if not np.all(np.isfinite(x)):
            raise CausalError("non-finite covariate")
        if t.shape != (x.shape[0],) or y.shape != (x.shape[0],):
            raise CausalError("treatment/outcome length does not match covariates")
        if not np.all(np.isin(t, (0, 1))) or not np.all(np.isin(y, (0, 1))):
            raise CausalError("treatment and outcome must be binary 0/1")
        if t.sum() == 0 or t.sum() == t.shape[0]:
            raise CausalError("both treatment arms must be non-empty")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "treatment", t)
        object.__setattr__(self, "outcome", y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    def subset(self, indices: np.ndarray) -> "CausalDataset":
        return CausalDataset(
            covariates=self.covariates[indices],
            treatment=self.treatment[indices],
            outcome=self.outcome[indices],
        )


@dataclass(frozen=True)
class AteEstimate:
    ate: float
    ci_low: float | None
    ci_high: float | None
    method: Method

    def __post_init__(self):
        if not -1.0 <= self.ate <= 1.0:
            raise CausalError(f"binary-outcome ATE {self.ate} outside [-1, 1]")
        if (self.ci_low is None) != (self.ci_high is None):
            raise CausalError("confidence bounds must be given together")
        if self.ci_low is not None and self.ci_low > self.ci_high:
            raise CausalError("ci_low exceeds ci_high")


# ---------------------------------------------------------------------------
# Bootstrap


def percentile_interval(values: np.ndarray, level: float) -> tuple[float, float]:
    """Percentile interval via order statistics (see module docstring)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.shape[0]
    alpha = 1.0 - level
    low_rank = min(max(int(math.floor(alpha / 2.0 * n)), 1), n)
    high_rank = min(max(int(math.ceil((1.0 - alpha / 2.0) * n)), 1), n)
    return float(values[low_rank - 1]), float(values[high_rank - 1])


def _bootstrap(n_boot: int, seed: int, replicate: Callable[[np.random.Generator], float]) -> np.ndarray:
    """`replicate` under the generator of each `bootstrap:<b>`, b < n_boot.  A replicate that
    raises an EcoprodError (a data-driven failure, such as a one-arm resample) is dropped and
    counted, and more than 10% failures aborts; any other exception is a bug and propagates."""
    estimates = []
    failures = 0
    for b in range(n_boot):
        rng = np.random.default_rng(derive_seed(seed, f"bootstrap:{b}"))
        try:
            estimates.append(float(replicate(rng)))
        except EcoprodError as exc:
            failures += 1
            logger.debug("bootstrap replicate %d failed: %s", b, exc)
    if failures > 0.1 * n_boot:
        raise BootstrapError(f"{failures}/{n_boot} bootstrap replicates failed")
    return np.array(estimates)


def _resample(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return values[rng.integers(0, values.shape[0], values.shape[0])]


def bootstrap_ci(
    estimator: Callable[[CausalDataset], float],
    data: CausalDataset,
    n_boot: int = 200,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap of an estimator over resampled-with-replacement
    datasets; failed replicates are handled by `_bootstrap`."""
    if n_boot < MIN_BOOTSTRAP:
        raise CausalError(f"need at least {MIN_BOOTSTRAP} bootstrap replicates")
    if not 0.0 < level < 1.0:
        raise CausalError("level must lie in (0, 1)")
    estimates = _bootstrap(n_boot, seed, lambda rng: estimator(data.subset(rng.integers(0, data.n, data.n))))
    return percentile_interval(estimates, level)


def percentile_bootstrap_mean(
    values: np.ndarray, n_boot: int, level: float, seed: int
) -> tuple[float, float]:
    """Percentile bootstrap of the mean of a fixed vector of per-unit values."""
    values = np.asarray(values, dtype=np.float64)
    return percentile_interval(_bootstrap(n_boot, seed, lambda rng: _resample(values, rng).mean()), level)


# ---------------------------------------------------------------------------
# Propensity and meta-learners


DEFAULT_BASE_CONFIG = TrainConfig(rounds=60, max_depth=3, eta=0.1, reg_lambda=1.0, min_child_cover=5.0)
DEFAULT_PROPENSITY_CONFIG = TrainConfig(rounds=40, max_depth=2, eta=0.1, reg_lambda=1.0, min_child_cover=10.0)


def propensity(data: CausalDataset, config: TrainConfig = DEFAULT_PROPENSITY_CONFIG) -> np.ndarray:
    """Boosted estimate of P(t=1 | x), clipped to [0.01, 0.99]."""
    model = train_classifier(data.covariates, data.treatment.astype(np.float64), config)
    scores = predict_proba(model, data.covariates)
    clipped = np.clip(scores, *PROPENSITY_CLIP)
    n_clipped = int(np.sum(scores != clipped))
    if n_clipped:
        logger.warning("propensity: clipped %d scores to %s", n_clipped, PROPENSITY_CLIP)
    return clipped


def diff_means_point(data: CausalDataset) -> float:
    treated = data.treatment == 1
    return float(data.outcome[treated].mean() - data.outcome[~treated].mean())


def _fit_prob_model(
    x: np.ndarray, y: np.ndarray, config: TrainConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """Outcome-probability model; a single-class arm collapses to a constant."""
    if np.unique(y).shape[0] < 2:
        rate = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
        return lambda query: np.full(np.atleast_2d(query).shape[0], rate)
    model = train_classifier(x, y, config)
    return lambda query: predict_proba(model, query)


def s_learner_effects(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> np.ndarray:
    """Per-row contrast f(x, 1) - f(x, 0) from one model over (x, t)."""
    xt = np.column_stack([data.covariates, data.treatment])
    f = _fit_prob_model(xt, data.outcome.astype(np.float64), config)
    with_treat = np.column_stack([data.covariates, np.ones(data.n)])
    without = np.column_stack([data.covariates, np.zeros(data.n)])
    return f(with_treat) - f(without)


def s_learner_point(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> float:
    """One model over (x, t); ATE = mean[f(x, 1) - f(x, 0)]."""
    return float(np.mean(s_learner_effects(data, config)))


def t_learner_effects(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> np.ndarray:
    """Per-row contrast f1(x) - f0(x) from arm-specific models."""
    treated = data.treatment == 1
    f1 = _fit_prob_model(data.covariates[treated], data.outcome[treated].astype(np.float64), config)
    f0 = _fit_prob_model(data.covariates[~treated], data.outcome[~treated].astype(np.float64), config)
    return f1(data.covariates) - f0(data.covariates)


def t_learner_point(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> float:
    """Arm-specific models; ATE = mean[f1(x) - f0(x)]."""
    return float(np.mean(t_learner_effects(data, config)))


def x_learner_effects(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> np.ndarray:
    """Imputed per-arm effects tau0/tau1 blended by the propensity score:
    tau(x) = g(x) tau0(x) + (1 - g(x)) tau1(x)."""
    treated = data.treatment == 1
    x1, y1 = data.covariates[treated], data.outcome[treated].astype(np.float64)
    x0, y0 = data.covariates[~treated], data.outcome[~treated].astype(np.float64)
    f1 = _fit_prob_model(x1, y1, config)
    f0 = _fit_prob_model(x0, y0, config)

    imputed_treated = y1 - f0(x1)
    imputed_control = f1(x0) - y0
    tau1 = train_regressor(x1, imputed_treated, config)
    tau0 = train_regressor(x0, imputed_control, config)

    g = propensity(data)
    # called through the module, whose attribute perfbench/tracing.py wraps
    effect0 = gbm.predict_margin(tau0, data.covariates)
    effect1 = gbm.predict_margin(tau1, data.covariates)
    return g * effect0 + (1.0 - g) * effect1


def x_learner_point(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> float:
    return float(np.mean(x_learner_effects(data, config)))


def _cross_fitted_nuisances(data: CausalDataset, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold predictions of m(x) = E[y | x] and e(x) = P(t=1 | x)."""
    m_hat = np.empty(data.n)
    e_hat = np.empty(data.n)
    folds = stratified_folds(data.treatment, config.folds, derive_seed(config.seed, "r-folds"))
    for fold_index, holdout in enumerate(folds):
        train_mask = np.ones(data.n, dtype=bool)
        train_mask[holdout] = False
        fold_seed = derive_seed(config.seed, f"r-fold:{fold_index}")
        outcome_model = _fit_prob_model(
            data.covariates[train_mask],
            data.outcome[train_mask].astype(np.float64),
            replace(config, seed=fold_seed),
        )
        treat_model = _fit_prob_model(
            data.covariates[train_mask],
            data.treatment[train_mask].astype(np.float64),
            replace(DEFAULT_PROPENSITY_CONFIG, seed=fold_seed),
        )
        m_hat[holdout] = outcome_model(data.covariates[holdout])
        e_hat[holdout] = np.clip(treat_model(data.covariates[holdout]), *PROPENSITY_CLIP)
    return m_hat, e_hat


def r_learner_effects(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> np.ndarray:
    """Residual-on-residual effect: with cross-fitted nuisances, a constant
    fitted by least squares of outcome residuals on treatment residuals,
    returned as a constant vector."""
    m_hat, e_hat = _cross_fitted_nuisances(data, config)
    outcome_residual = data.outcome - m_hat
    treat_residual = data.treatment - e_hat
    constant = float(np.sum(outcome_residual * treat_residual) / np.sum(treat_residual**2))
    return np.full(data.n, constant)


def r_learner_point(data: CausalDataset, config: TrainConfig = DEFAULT_BASE_CONFIG) -> float:
    return float(np.mean(r_learner_effects(data, config)))


def group_mean_effects(effects: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Mean unit-level effect per group, ordered by sorted group id.

    The province-level analysis mode averages message contrasts within each
    province before the across-province average, so every province counts
    once regardless of its complaint volume.
    """
    effects = np.asarray(effects, dtype=np.float64)
    group_ids = np.asarray(group_ids)
    return np.array([effects[group_ids == g].mean() for g in np.unique(group_ids)])


def bootstrap_group_diff_ci(
    treated_values: np.ndarray,
    control_values: np.ndarray,
    n_boot: int,
    level: float,
    seed: int,
) -> tuple[float, float]:
    """Percentile CI for a difference of group means, resampling each arm's
    groups with replacement (both arms stay populated by construction)."""
    treated_values = np.asarray(treated_values, dtype=np.float64)
    control_values = np.asarray(control_values, dtype=np.float64)
    diff = lambda rng: _resample(treated_values, rng).mean() - _resample(control_values, rng).mean()  # noqa: E731
    return percentile_interval(_bootstrap(n_boot, seed, diff), level)


def _estimate(
    method: Method,
    data: CausalDataset,
    effects: Callable[[CausalDataset], np.ndarray],
    groups: np.ndarray | None,
    n_boot: int,
    seed: int,
    refit: bool = True,
) -> AteEstimate:
    """The ATE of per-row `effects` and its interval, in the unit `groups`
    selects (module docstring); with `refit` False, row-unit replicates
    resample the effects of the one fit instead of refitting."""
    ci: tuple = (None, None)
    if groups is None and refit:
        point = lambda d: float(np.mean(effects(d)))  # noqa: E731
        ate = point(data)
        if n_boot:
            ci = bootstrap_ci(point, data, n_boot, CI_LEVEL, seed)
    else:
        values = effects(data) if groups is None else group_mean_effects(effects(data), groups)
        ate = values.mean()
        if n_boot:
            ci = percentile_bootstrap_mean(values, n_boot, CI_LEVEL, seed)
    return AteEstimate(float(np.clip(ate, -1.0, 1.0)), *ci, method)


def diff_means(
    data: CausalDataset, n_boot: int = 0, seed: int = 0, groups: np.ndarray | None = None
) -> AteEstimate:
    """Treated minus control mean outcome.  With `groups`, the difference of
    the two arms' mean group-mean outcomes, a group's arm being its majority
    treatment, and replicates resample each arm's groups."""
    ci: tuple = (None, None)
    if groups is None:
        ate = diff_means_point(data)
        if n_boot:
            ci = bootstrap_ci(diff_means_point, data, n_boot, CI_LEVEL, seed)
    else:
        means = group_mean_effects(data.outcome.astype(np.float64), groups)
        treated = group_mean_effects(data.treatment.astype(np.float64), groups) > 0.5
        ate = means[treated].mean() - means[~treated].mean()
        if n_boot:
            ci = bootstrap_group_diff_ci(means[treated], means[~treated], n_boot, CI_LEVEL, seed)
    return AteEstimate(float(np.clip(ate, -1.0, 1.0)), *ci, Method.DIFF_MEANS)


def _learner(method: Method, effects: Callable[[CausalDataset, TrainConfig], np.ndarray]):
    """The public estimator of the meta-learner with per-row `effects`."""

    def estimate(
        data: CausalDataset,
        config: TrainConfig = DEFAULT_BASE_CONFIG,
        n_boot: int = 0,
        seed: int = 0,
        groups: np.ndarray | None = None,
    ) -> AteEstimate:
        return _estimate(method, data, lambda d: effects(d, config), groups, n_boot, seed)

    estimate.__name__ = estimate.__qualname__ = f"{method.value}_learner"
    return estimate


s_learner = _learner(Method.S, s_learner_effects)
t_learner = _learner(Method.T, t_learner_effects)
x_learner = _learner(Method.X, x_learner_effects)
r_learner = _learner(Method.R, r_learner_effects)


# ---------------------------------------------------------------------------
# Latent-confounder variational autoencoder


@dataclass(frozen=True)
class CevaeConfig:
    latent_dim: int = 20
    hidden_layers: int = 3
    hidden_units: int = 200
    epochs: int = 120
    batch_size: int = 100
    learning_rate: float = 1e-3
    mc_samples: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("latent_dim", "hidden_layers", "hidden_units", "epochs", "batch_size", "mc_samples"):
            if getattr(self, name) < 1:
                raise CausalError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise CausalError("learning_rate must be positive")


PAPER_PRESET = CevaeConfig()
DESK_PRESET = CevaeConfig(
    latent_dim=8, hidden_layers=2, hidden_units=64, epochs=120, learning_rate=2e-3
)


@dataclass
class CevaeModel:
    config: CevaeConfig
    encoder: ad.Mlp          # q(z | x, t, y) -> (mu, logvar)
    aux_treatment: ad.Mlp    # q(t | x)
    aux_outcome: ad.Mlp      # q(y | x, t)
    decoder_x: ad.Mlp        # p(x | z) -> (mu, logvar)
    decoder_t: ad.Mlp        # p(t | z)
    decoder_y0: ad.Mlp       # p(y | t=0, z)
    decoder_y1: ad.Mlp       # p(y | t=1, z)
    x_mean: np.ndarray
    x_std: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def parameters(self) -> list[ad.Tensor]:
        params = []
        for net in (
            self.encoder, self.aux_treatment, self.aux_outcome,
            self.decoder_x, self.decoder_t, self.decoder_y0, self.decoder_y1,
        ):
            params.extend(net.parameters())
        return params


def _soft_clamp(x: ad.Tensor, limit: float = 6.0) -> ad.Tensor:
    """Smoothly squash into (-limit, limit) to keep exp(logvar) sane."""
    return ad.scale(ad.tanh(ad.scale(x, 1.0 / limit)), limit)


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (x - mean) / std, mean, std


def _encode(model: CevaeModel, x: np.ndarray, t: np.ndarray, y: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    inputs = ad.Tensor(np.column_stack([x, t, y]))
    heads = model.encoder(inputs)
    mu = ad.slice_cols(heads, 0, model.config.latent_dim)
    logvar = _soft_clamp(ad.slice_cols(heads, model.config.latent_dim, 2 * model.config.latent_dim))
    return mu, logvar


def _batch_loss(
    model: CevaeModel,
    x: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    noise: np.ndarray,
) -> ad.Tensor:
    """Negative ELBO per sample (auxiliary heads included), as a scalar."""
    batch = x.shape[0]
    t_col = t[:, None]
    y_col = y[:, None]

    mu_z, logvar_z = _encode(model, x, t_col, y_col)
    z = ad.gaussian_reparameterize(mu_z, logvar_z, noise)

    x_heads = model.decoder_x(z)
    p = x.shape[1]
    recon_x = ad.gaussian_logpdf(
        x, ad.slice_cols(x_heads, 0, p), _soft_clamp(ad.slice_cols(x_heads, p, 2 * p))
    )
    recon_t = ad.bernoulli_logpmf(ad.sigmoid(model.decoder_t(z)), t_col)

    prob_y0 = ad.sigmoid(model.decoder_y0(z))
    prob_y1 = ad.sigmoid(model.decoder_y1(z))
    mask1 = ad.Tensor(t_col)
    mask0 = ad.Tensor(1.0 - t_col)
    prob_y = ad.add(ad.mul(prob_y1, mask1), ad.mul(prob_y0, mask0))
    recon_y = ad.bernoulli_logpmf(prob_y, y_col)

    aux_t = ad.bernoulli_logpmf(ad.sigmoid(model.aux_treatment(ad.Tensor(x))), t_col)
    aux_y = ad.bernoulli_logpmf(
        ad.sigmoid(model.aux_outcome(ad.Tensor(np.column_stack([x, t])))), y_col
    )
    kl = ad.kl_diag_gaussian(mu_z, logvar_z)

    elbo = ad.sub(
        ad.add(ad.add(ad.add(recon_x, recon_t), ad.add(recon_y, aux_t)), aux_y),
        kl,
    )
    return ad.scale(elbo, -1.0 / batch)


def cevae_fit(data: CausalDataset, config: CevaeConfig = DESK_PRESET) -> CevaeModel:
    """Train the latent-confounder model by minibatch Adam on the negative
    ELBO; the per-epoch mean loss is recorded and must stay finite."""
    rng = np.random.default_rng(derive_seed(config.seed, "cevae"))
    x, x_mean, x_std = _standardize(data.covariates)
    t = data.treatment.astype(np.float64)
    y = data.outcome.astype(np.float64)
    p = x.shape[1]
    hidden = [config.hidden_units] * config.hidden_layers

    model = CevaeModel(
        config=config,
        encoder=ad.Mlp([p + 2, *hidden, 2 * config.latent_dim], "relu", rng),
        aux_treatment=ad.Mlp([p, *hidden, 1], "relu", rng),
        aux_outcome=ad.Mlp([p + 1, *hidden, 1], "relu", rng),
        decoder_x=ad.Mlp([config.latent_dim, *hidden, 2 * p], "relu", rng),
        decoder_t=ad.Mlp([config.latent_dim, *hidden, 1], "relu", rng),
        decoder_y0=ad.Mlp([config.latent_dim, *hidden, 1], "relu", rng),
        decoder_y1=ad.Mlp([config.latent_dim, *hidden, 1], "relu", rng),
        x_mean=x_mean,
        x_std=x_std,
    )
    params = model.parameters()
    adam = ad.AdamState(learning_rate=config.learning_rate)

    n = data.n
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            noise = rng.standard_normal((batch.shape[0], config.latent_dim))
            with ad.Tape() as tape:
                loss = _batch_loss(model, x[batch], t[batch], y[batch], noise)
                if not np.isfinite(loss.data):
                    raise TrainingDivergenceError(
                        f"non-finite loss at epoch {epoch}", epoch=epoch
                    )
                tape.backward(loss)
            ad.adam_step(params, adam)
            epoch_losses.append(float(loss.data))
        model.loss_history.append(float(np.mean(epoch_losses)))
    return model


def cevae_unit_effects(model: CevaeModel, data: CausalDataset, seed: int = 0) -> np.ndarray:
    """Per-unit E_z[p(y=1 | t=1, z) - p(y=1 | t=0, z)] over `model.config.mc_samples` posterior draws."""
    rng = np.random.default_rng(derive_seed(seed, "cevae-ate"))
    x = (data.covariates - model.x_mean) / model.x_std
    t = data.treatment.astype(np.float64)[:, None]
    y = data.outcome.astype(np.float64)[:, None]
    mu, logvar = _encode(model, x, t, y)
    std = np.exp(0.5 * logvar.data)

    deltas = np.zeros(data.n)
    for _ in range(model.config.mc_samples):
        z = ad.Tensor(mu.data + std * rng.standard_normal(std.shape))
        p1 = 1.0 / (1.0 + np.exp(-model.decoder_y1(z).data[:, 0]))
        p0 = 1.0 / (1.0 + np.exp(-model.decoder_y0(z).data[:, 0]))
        deltas += p1 - p0
    return deltas / model.config.mc_samples


def cevae_ate(
    model: CevaeModel,
    data: CausalDataset,
    n_boot: int = 200,
    seed: int = 0,
    groups: np.ndarray | None = None,
) -> AteEstimate:
    """ATE of the per-unit contrasts `cevae_unit_effects`.

    The trained networks are held fixed across bootstrap replicates (a full
    refit per replicate is far beyond desk scale), so the interval reflects
    unit-level sampling variation of the plug-in estimate.
    """
    effects = lambda d: cevae_unit_effects(model, d, seed)  # noqa: E731
    return _estimate(Method.CEVAE, data, effects, groups, n_boot, seed, refit=False)


# ---------------------------------------------------------------------------
# Synthetic benchmark with an exactly planted effect


def synthetic_causal_dataset(
    n: int,
    n_covariates: int = 7,
    true_ate: float = 0.24,
    confounding_strength: float = 1.0,
    seed: int = 0,
) -> tuple[CausalDataset, float]:
    """Confounded benchmark whose sample-average treatment effect is exact.

    A scalar confounder u drives noisy covariate proxies, the treatment
    propensity sigmoid(confounding_strength * u), and the outcome logit
    (-0.3 + u); the treatment logit shift is calibrated by bisection so the
    average probability lift over the realized units equals `true_ate`.
    Returns the dataset and the calibrated shift.
    """
    if n < 4:
        raise CausalError("need at least 4 units")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    loadings = np.array([1.0, -1.0, 0.8, -0.8, 0.6, 0.5, -0.4][:n_covariates])
    if n_covariates > loadings.shape[0]:
        extra = rng.uniform(0.4, 1.0, n_covariates - loadings.shape[0])
        loadings = np.concatenate([loadings, extra * np.where(np.arange(extra.shape[0]) % 2, -1, 1)])
    covariates = u[:, None] * loadings[None, :] + 0.5 * rng.standard_normal((n, n_covariates))

    logits = confounding_strength * u
    treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    if treatment.sum() == 0 or treatment.sum() == n:
        treatment[rng.integers(n)] = 1 - treatment[0]

    eta = -0.3 + u
    shift = calibrate_treatment_shift(eta, true_ate)
    probs = 1.0 / (1.0 + np.exp(-(eta + shift * treatment)))
    outcome = (rng.random(n) < probs).astype(np.int64)
    return CausalDataset(covariates=covariates, treatment=treatment, outcome=outcome), float(shift)
