"""Exception types shared across the package."""


class SeqsslError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(SeqsslError):
    pass


class DegenerateVector(SeqsslError):
    """Vector norm below the normalization floor."""


class NotScalar(SeqsslError):
    pass


class IndexOutOfRange(SeqsslError):
    pass


class TooFewPoints(SeqsslError):
    pass


class DegenerateSpread(SeqsslError):
    pass


class ScaleOutOfRange(SeqsslError):
    pass


class NotNormalized(SeqsslError):
    pass


class EmptyPositives(SeqsslError):
    pass


class VideoTooShort(SeqsslError):
    pass


class EmptyBatch(SeqsslError):
    pass


class EmptyDataset(SeqsslError):
    pass


class ConfigError(SeqsslError):
    pass


class NonFiniteLoss(SeqsslError):
    """A training step produced a NaN or infinite loss."""
