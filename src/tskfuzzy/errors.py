"""Exception types raised across the package."""


class TskFuzzyError(ValueError):
    """Base class for errors raised by this library."""


class ConstantFeature(TskFuzzyError):
    """A feature has zero spread, so MF initialization or z-scoring is
    impossible, or the training targets do, so there is nothing to fit."""


class LengthMismatch(TskFuzzyError):
    """A vector's length does not match the expected dimension: a flat
    parameter vector, targets that are not one per row of a batch or a
    dataset, or feature names that are not one per column."""


class EmptyBatch(TskFuzzyError):
    """Loss or gradient requested for an empty batch."""


class MaskShapeMismatch(TskFuzzyError):
    """Drop masks do not line up with the batch or the model's grid, or a
    DropRule mask drops every rule of an example, which leaves its
    normalized firing levels undefined."""


class NonFiniteGradient(TskFuzzyError):
    """A gradient handed to an optimizer step contains NaN or Inf."""


class Diverged(TskFuzzyError):
    """Training produced a non-finite batch loss, gradient or parameter."""


class EmptyTrainingSet(TskFuzzyError):
    """Training requested on a dataset with no examples."""


class EmptyDataset(TskFuzzyError):
    """Metric requested on a dataset with no examples."""


class ZeroBaseline(TskFuzzyError):
    """Percentage improvement against a baseline value of zero."""


class ParseError(TskFuzzyError):
    """A delimited text file could not be parsed as numeric data."""


class MissingTarget(TskFuzzyError):
    """The requested target column is not present."""


class NonNumericTarget(TskFuzzyError):
    """The target column contains non-numeric values."""


class NonFiniteValue(TskFuzzyError):
    """A dataset cell is NaN or infinite, or a column's mean or standard
    deviation overflows the float range."""


class SchemaMismatch(TskFuzzyError):
    """Dataset columns do not match the fitted preprocessor."""


class TooSmall(TskFuzzyError):
    """Dataset too small to split."""


class SingularSystem(TskFuzzyError):
    """Normal equations are singular (rank-deficient design at lambda = 0)."""


class DimensionMismatch(TskFuzzyError):
    """Input width does not match the fitted model, or a dataset's design
    matrix is not 2-D."""


class GridTooLarge(TskFuzzyError):
    """Requested rule grid exceeds the supported size."""
