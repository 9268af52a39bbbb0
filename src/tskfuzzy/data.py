"""Dataset ingestion and preprocessing: CSV loading, z-normalization with
output centering, PCA down to a small number of inputs, splitting, and
mini-batch index sampling.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstantFeature,
    DimensionMismatch,
    LengthMismatch,
    MissingTarget,
    NonFiniteValue,
    NonNumericTarget,
    ParseError,
    SchemaMismatch,
    TooSmall,
)


@dataclass
class Dataset:
    """Numeric design matrix X [N, M] with target vector y [N] and one
    name per column (x1, x2, ... when none are given). Raises
    DimensionMismatch unless X is 2-D, LengthMismatch unless y holds one
    value per row and the names one per column, and NonFiniteValue, naming
    the first bad row and column, for a NaN or infinite cell."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise DimensionMismatch(f"X must be a 2-D [N, M] array, got shape {self.X.shape}")
        if self.y.shape != (self.n,):
            raise LengthMismatch(
                f"y has shape {self.y.shape}, expected one value per row: ({self.n},)"
            )
        if not self.feature_names:
            self.feature_names = [f"x{j + 1}" for j in range(self.num_features)]
        if len(self.feature_names) != self.num_features:
            raise LengthMismatch(
                f"{len(self.feature_names)} feature names for {self.num_features} columns"
            )
        for cells, names in ((self.X, self.feature_names), (self.y[:, None], ["y"])):
            bad = np.argwhere(~np.isfinite(cells))
            if bad.size:
                i, j = bad[0]
                raise NonFiniteValue(f"row {i}, column {names[j]!r} is {cells[i, j]}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def num_features(self) -> int:
        return self.X.shape[1]


def _parse_number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_csv(path, target) -> Dataset:
    """Load a comma-separated numeric file with a header row.

    target selects the output column by name or 0-based position.
    Columns whose first data cell is not numeric are treated as
    categorical and dropped with a warning; a non-numeric cell appearing
    later inside a numeric column is an error. A bool or int path is a TypeError.

    A file whose data rows np.loadtxt reads as finite numbers, one per
    header column, is parsed in that one call; it accepts no cell that
    float() refuses, and gives the same value. Any other file is read cell
    by cell, which raises the errors above.
    """
    with open(os.fspath(path), newline="", encoding="utf-8-sig") as fh:
        header = next((row for row in csv.reader(fh) if row and any(c.strip() for c in row)), [])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a file with no data rows warns
                values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except (ValueError, UserWarning):
            values = None
    if values is None or values.shape[1] != len(header) or not np.isfinite(values).all():
        return _load_csv_cells(path, target)
    header = [h.strip() for h in header]
    t = _target_index(header, target)
    names = [h for j, h in enumerate(header) if j != t]
    return Dataset(np.delete(values, t, axis=1), values[:, t].copy(), names)


def _target_index(header: list, target) -> int:
    if isinstance(target, int):
        if not 0 <= target < len(header):
            raise MissingTarget(f"target index {target} out of range for {len(header)} columns")
        return target
    if target not in header:
        raise MissingTarget(f"no column named {target!r} in {header}")
    return header.index(target)


def _load_csv_cells(path, target) -> Dataset:
    """load_csv, one cell at a time through _parse_number."""
    with open(os.fspath(path), newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    target_idx = _target_index(header, target)

    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ParseError(f"row {i + 2}: expected {len(header)} cells, got {len(row)}")

    first = body[0]
    if _parse_number(first[target_idx]) is None:
        raise NonNumericTarget(f"target column {header[target_idx]!r} is not numeric")
    numeric_cols = [
        j
        for j in range(len(header))
        if j != target_idx and _parse_number(first[j]) is not None
    ]
    for j in range(len(header)):
        if j != target_idx and j not in numeric_cols:
            warnings.warn(f"dropping non-numeric column {header[j]!r}", stacklevel=3)

    X = np.empty((len(body), len(numeric_cols)))
    y = np.empty(len(body))
    for i, row in enumerate(body):
        value = _parse_number(row[target_idx])
        if value is None:
            raise NonNumericTarget(
                f"row {i + 2}, column {header[target_idx]!r}: non-numeric target {row[target_idx]!r}"
            )
        y[i] = value
        for out_j, j in enumerate(numeric_cols):
            value = _parse_number(row[j])
            if value is None:
                raise ParseError(
                    f"row {i + 2}, column {header[j]!r}: non-numeric cell {row[j]!r}"
                )
            X[i, out_j] = value
    return Dataset(X, y, [header[j] for j in numeric_cols])


@dataclass
class Preprocessor:
    """Train-fitted transform: z-scores, output centering, optional PCA.

    projection is [M_raw, M_out] with orthonormal columns (the top
    principal directions of the z-scored training matrix), or None when no
    reduction was needed.
    """

    feature_means: np.ndarray
    feature_stds: np.ndarray
    output_mean: float
    projection: np.ndarray | None = None


def fit_preprocessor(train: Dataset, max_dims: int = 5) -> Preprocessor:
    """Fit means/stds/output mean on the training split only.

    When the raw width exceeds max_dims, PCA on the z-scored training
    matrix keeps the top max_dims components by eigenvalue. Eigenvector
    signs are fixed so the largest-magnitude entry of each is positive.
    Raises ConstantFeature for a constant input column, and for training
    targets that are all equal: centered, they are all 0, which any model
    fits exactly. Raises NonFiniteValue for a column of finite values whose
    mean or standard deviation overflows, which no z-score survives, and
    for training targets whose mean overflows.
    """
    X = train.X
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.mean(axis=0)
        stds = X.std(axis=0, ddof=1)
        spread = np.ptp(X, axis=0)
        output_mean = float(train.y.mean())
        constant_y = np.ptp(train.y) == 0
    # ptp is exact for equal values, whose std can round above 0; a spread
    # too small to survive the std's squares is refused as well
    flat = np.flatnonzero((spread == 0) | (stds <= 0))
    if flat.size:
        raise ConstantFeature(f"feature {train.feature_names[flat[0]]!r} is constant")
    huge = np.flatnonzero(~np.isfinite(means) | ~np.isfinite(stds))
    if huge.size:
        what = "a mean or standard deviation past the float range"
        raise NonFiniteValue(f"feature {train.feature_names[huge[0]]!r} has {what}")
    if constant_y:
        raise ConstantFeature("the training targets are constant")
    if not math.isfinite(output_mean):
        raise NonFiniteValue("the training targets have a mean past the float range")
    projection = None
    if X.shape[1] > max_dims:
        Z = (X - means) / stds
        cov = (Z.T @ Z) / (X.shape[0] - 1)
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(-vals, kind="stable")[:max_dims]
        projection = vecs[:, order].copy()
        for j in range(projection.shape[1]):
            i = np.argmax(np.abs(projection[:, j]))
            if projection[i, j] < 0:
                projection[:, j] = -projection[:, j]
    return Preprocessor(means, stds, output_mean, projection)


def apply_preprocessor(pre: Preprocessor, d: Dataset) -> Dataset:
    """Z-score, project, and center a dataset with train-fitted statistics."""
    if d.X.shape[1] != pre.feature_means.size:
        raise SchemaMismatch(
            f"dataset has {d.X.shape[1]} features, preprocessor was fitted on {pre.feature_means.size}"
        )
    Z = (d.X - pre.feature_means) / pre.feature_stds
    if pre.projection is not None:
        Z = Z @ pre.projection
        names = [f"pc{j + 1}" for j in range(Z.shape[1])]
    else:
        names = list(d.feature_names)
    return Dataset(Z, d.y - pre.output_mean, names)


def _generator(rng) -> np.random.Generator:
    """np.random.default_rng(rng), or ValueError for None, which would draw
    from the operating system's entropy."""
    if rng is None:
        raise ValueError("rng must be a numpy Generator or a seed, got None")
    return np.random.default_rng(rng)


def split(d: Dataset, ratio: float, rng) -> tuple[Dataset, Dataset]:
    """Seed-deterministic random split into (train, test); disjoint and
    exhaustive. rng is a numpy Generator or a seed for default_rng. Raises
    ValueError unless 0 < ratio < 1 and for an rng of None, and TooSmall
    for fewer than 2 rows."""
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if d.n < 2:
        raise TooSmall(f"cannot split {d.n} examples")
    perm = _generator(rng).permutation(d.n)
    n_train = min(max(int(round(ratio * d.n)), 1), d.n - 1)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(d.X[tr], d.y[tr], list(d.feature_names)),
        Dataset(d.X[te], d.y[te], list(d.feature_names)),
    )


def sample_batch(d: Dataset, batch_size: int, rng) -> np.ndarray:
    """min(batch_size, N) distinct uniform row indices, drawn from rng as
    split() takes it (ValueError for None)."""
    return _generator(rng).choice(d.n, size=min(batch_size, d.n), replace=False)


def make_synthetic(n: int = 1500, noise: float = 0.1, seed=0) -> Dataset:
    """Bundled benchmark problem: y = sin(x1) * x2 + noise * N(0, 1).

    Five uniform inputs on [-4, 4], except x2 which spans [-10, 10] so the
    centered target keeps a spread comparable to real regression targets;
    x3..x5 are pure nuisance. The sine is non-monotone over the x1 range,
    which keeps the problem out of reach of a linear fit.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-4.0, 4.0, (n, 5))
    X[:, 1] *= 2.5
    y = np.sin(X[:, 0]) * X[:, 1] + noise * rng.standard_normal(n)
    return Dataset(X, y, [f"x{j + 1}" for j in range(5)])
