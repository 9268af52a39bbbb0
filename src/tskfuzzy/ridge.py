"""Closed-form ridge regression baseline (single pass, no iterations)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularSystem


@dataclass
class LinearModel:
    """Affine predictor b0 + X @ w."""

    weights: np.ndarray
    bias: float


def ridge_fit(X, y, lam: float = 0.05) -> LinearModel:
    """Minimize sum (y - b0 - X w)^2 + lam * ||w||^2 with the bias unpenalized.

    Solved on column-centered data via a symmetric positive-definite
    factorization; the intercept is recovered from the means afterwards,
    which is what leaves it out of the penalty.
    """
    import scipy.linalg  # at the first fit: it loads slower than numpy and this package together

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    A = Xc.T @ Xc + lam * np.eye(X.shape[1])
    try:
        factor = scipy.linalg.cho_factor(A)
        w = scipy.linalg.cho_solve(factor, Xc.T @ (y - y_mean))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations are singular: {exc}") from exc
    return LinearModel(w, float(y_mean - x_mean @ w))


def ridge_predict(model: LinearModel, X) -> np.ndarray:
    """bias + X @ weights for a batch of rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.weights.size:
        raise DimensionMismatch(
            f"expected rows of width {model.weights.size}, got array of shape {X.shape}"
        )
    return model.bias + X @ model.weights
