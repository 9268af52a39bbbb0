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
    MissingTarget,
    NonNumericTarget,
    ParseError,
    SchemaMismatch,
    TooSmall,
)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass
class Dataset:
    """Numeric design matrix X [N, M] with target vector y [N]."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not self.feature_names:
            self.feature_names = [f"x{j + 1}" for j in range(self.X.shape[1])]

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
    """
    with open(os.fspath(path), newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]

    if isinstance(target, int):
        if not 0 <= target < len(header):
            raise MissingTarget(f"target index {target} out of range for {len(header)} columns")
        target_idx = target
    else:
        if target not in header:
            raise MissingTarget(f"no column named {target!r} in {header}")
        target_idx = header.index(target)

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
            warnings.warn(f"dropping non-numeric column {header[j]!r}", stacklevel=2)

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
    """
    X = train.X
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    flat = np.flatnonzero(stds <= 0)
    if flat.size:
        raise ConstantFeature(f"feature {train.feature_names[flat[0]]!r} is constant")
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
    return Preprocessor(means, stds, float(train.y.mean()), projection)


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


def split(d: Dataset, ratio: float = 0.7, rng=None) -> tuple[Dataset, Dataset]:
    """Seed-deterministic random split into (train, test); disjoint and exhaustive."""
    if d.n < 2:
        raise TooSmall(f"cannot split {d.n} examples")
    rng = _as_rng(rng)
    perm = rng.permutation(d.n)
    n_train = min(max(int(round(ratio * d.n)), 1), d.n - 1)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(d.X[tr], d.y[tr], list(d.feature_names)),
        Dataset(d.X[te], d.y[te], list(d.feature_names)),
    )


def sample_batch(d: Dataset, batch_size: int, rng) -> np.ndarray:
    """min(batch_size, N) distinct uniform row indices."""
    rng = _as_rng(rng)
    return rng.choice(d.n, size=min(batch_size, d.n), replace=False)


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
