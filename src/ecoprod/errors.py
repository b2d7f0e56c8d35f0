"""Exception hierarchy shared by all ecoprod modules."""

import copyreg


class EcoprodError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # Unpickle without calling __init__, whose parameters differ from
        # `args` in some subclasses; the attributes come back from __dict__.
        # A task's error crosses from a `parallel` worker this way.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class IngestionError(EcoprodError):
    """A data file could not be parsed or violates a record invariant."""


class FeatureError(EcoprodError):
    """Feature-matrix assembly failed (missing join key or feature)."""


class DatasetError(EcoprodError):
    """Invalid synthetic-data specification or generation failure."""


class LpConstructionError(EcoprodError):
    """A linear program was built with inconsistent dimensions or bad data."""


class SolverFailureError(EcoprodError):
    """The simplex solver broke down numerically; no answer is returned."""


class DeaError(EcoprodError):
    """Efficiency scoring failed for a panel or a specific unit."""


class DegenerateUnitError(DeaError):
    """An evaluated unit has a zero input in a constrained dimension."""


class NoSplitError(DeaError):
    """All efficiency scores are identical; no median split exists."""


class DegenerateSimilarityError(EcoprodError):
    """All embeddings coincide: the similarity bandwidth is zero."""


class IsolatedVertexError(EcoprodError):
    """The similarity graph has a zero-degree vertex."""


class EigenSolverError(EcoprodError):
    """The symmetric eigendecomposition did not converge."""


class ClusteringError(EcoprodError):
    """K-means could not produce the requested partition."""


class TrainingError(EcoprodError):
    """Gradient-boosting input or invariant violation during training."""


class TrainingDivergenceError(EcoprodError):
    """A neural-network loss became non-finite during optimization."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class DegenerateSplitError(EcoprodError):
    """A two-group split was requested on identical values."""


class CausalError(EcoprodError):
    """Treatment-effect estimation failed."""


class BootstrapError(CausalError):
    """Too many bootstrap replicates failed to produce an estimate."""


class ConfigError(EcoprodError):
    """Pipeline or CLI configuration is invalid."""


class PipelineStageError(EcoprodError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
