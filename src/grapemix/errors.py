"""Exception types shared across the library."""


class GrapemixError(Exception):
    """Base class for all library errors."""


class DegenerateWeights(GrapemixError):
    """A weight vector cannot be normalized (all zero, NaN or Inf mass)."""


class ScoreError(GrapemixError):
    """A score vector contains non-finite entries or has the wrong shape."""


class DivergenceUndefined(GrapemixError):
    """KL-type divergence requested where the support condition fails."""


class DegenerateLoss(GrapemixError):
    """A loss value fell below the floor used for normalized quantities."""


class EmptyBatch(GrapemixError):
    """An operation received an empty batch (or one with no usable content)."""


class DimensionError(GrapemixError):
    """Vector lengths or labels do not line up."""


class SpecError(GrapemixError):
    """A synthetic-data specification is invalid (e.g. non-stochastic rows)."""


class IngestError(GrapemixError):
    """A dataset or weights file could not be parsed.

    Carries the 1-based line number of the offending record, if any.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyDataset(EmptyBatch):
    """A dataset file, spec or batch has no examples."""


class ConfigError(GrapemixError):
    """A run configuration is malformed; the message names the key or field."""


class ReportError(GrapemixError):
    """A trajectory lacks the fields required by an analysis report."""


class NumericalDivergence(GrapemixError):
    """Training aborted: a task loss went NaN or blew past the guard.

    Carries the step index at which the divergence was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step
