"""Exception types shared across the package."""


class GnnSearchError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(GnnSearchError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(GnnSearchError):
    """An argument value is outside its documented domain."""


class ValidationError(GnnSearchError):
    """An architecture description or token string is malformed."""


class IngestionError(GnnSearchError):
    """A dataset file is malformed; the message names the offending line."""


class ConfigError(GnnSearchError):
    """A run configuration is malformed; the message names the field."""


class TrainingError(GnnSearchError):
    """Child-model training diverged (non-finite loss), or no derive candidate trained."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
