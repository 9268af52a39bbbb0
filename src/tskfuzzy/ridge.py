"""Closed-form ridge regression baseline (single pass, no iterations)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, SingularSystem


@dataclass
class LinearModel:
    """Affine predictor b0 + X @ w."""

    weights: np.ndarray
    bias: float


def ridge_fit(X, y, lam: float) -> LinearModel:
    """Minimize sum (y - b0 - X w)^2 + lam * ||w||^2 with the bias unpenalized.

    Solved on column-centered data via a Cholesky factorization; the
    intercept is recovered from the means afterwards, which is what leaves
    it out of the penalty. A negative, infinite or NaN lam raises
    ValueError, X that is not 2-D DimensionMismatch, and y that is not one
    value per row LengthMismatch.
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be a 2-D [N, M] array, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise LengthMismatch(f"y has shape {y.shape}, expected one value per row: ({X.shape[0]},)")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    A = Xc.T @ Xc + lam * np.eye(X.shape[1])
    try:
        L = np.linalg.cholesky(A)
        w = np.linalg.solve(L.T, np.linalg.solve(L, Xc.T @ (y - y_mean)))
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
