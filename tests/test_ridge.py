"""Ridge baseline against a brute-force normal-equation oracle."""

import itertools

import numpy as np
import pytest

from tskfuzzy import ridge_fit, ridge_predict
from tskfuzzy.errors import DimensionMismatch, LengthMismatch, SingularSystem


def oracle_fit(X, y, lam):
    """Normal equations formed and inverted explicitly (independent route)."""
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    w = np.linalg.inv(Xc.T @ Xc + lam * np.eye(X.shape[1])) @ (Xc.T @ (y - y_mean))
    return w, y_mean - x_mean @ w


def test_interpolates_exactly_determined_system():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 5))
    y = rng.standard_normal(6)
    model = ridge_fit(X, y, lam=0.0)
    np.testing.assert_allclose(ridge_predict(model, X), y, atol=1e-8)


def test_huge_lambda_shrinks_to_mean():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40) + 2.0
    model = ridge_fit(X, y, lam=1e12)
    assert np.max(np.abs(model.weights)) < 1e-6
    np.testing.assert_allclose(ridge_predict(model, X), y.mean(), atol=1e-5)


def test_matches_normal_equation_oracle():
    """Widths past the CLI's 5 columns too: library callers fit them."""
    rng = np.random.default_rng(2)
    for width, lam in itertools.product((1, 3, 5, 8, 12), (0.05, 1.0)):
        for _ in range(50):
            X = rng.standard_normal((50, width))
            y = rng.standard_normal(50)
            model = ridge_fit(X, y, lam=lam)
            w, b0 = oracle_fit(X, y, lam)
            np.testing.assert_allclose(model.weights, w, rtol=1e-8)
            np.testing.assert_allclose(model.bias, b0, rtol=1e-8, atol=1e-12)


def test_bias_absorbs_target_shift():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    a = ridge_fit(X, y, lam=0.05)
    b = ridge_fit(X, y + 7.5, lam=0.05)
    np.testing.assert_allclose(b.weights, a.weights, atol=1e-10)
    assert abs((b.bias - a.bias) - 7.5) < 1e-10


def test_weight_norm_shrinks_with_lambda():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 5))
    y = rng.standard_normal(60)
    norms = [
        np.linalg.norm(ridge_fit(X, y, lam).weights) for lam in (0.0, 0.05, 1.0, 10.0, 1e3)
    ]
    assert np.all(np.diff(norms) <= 1e-12)


def test_singular_without_penalty():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 3))
    X = np.column_stack([X, X[:, 0]])  # duplicated column
    y = rng.standard_normal(20)
    with pytest.raises(SingularSystem):
        ridge_fit(X, y, lam=0.0)
    ridge_fit(X, y, lam=0.05)  # any positive penalty fixes it


@pytest.mark.parametrize("lam", [-5.0, -1e-300, float("nan"), float("inf")])
def test_negative_lambda_rejected(lam):
    X = np.random.default_rng(6).standard_normal((20, 3))
    with pytest.raises(ValueError, match="lam"):
        ridge_fit(X, X[:, 0], lam=lam)


def test_inputs_of_the_wrong_shape_rejected():
    """Rows that are not a 2-D array and targets that are not one per row
    raise the errors Dataset and ridge_predict raise, not numpy's."""
    X = np.random.default_rng(7).standard_normal((20, 3))
    with pytest.raises(DimensionMismatch, match=r"shape \(20,\)"):
        ridge_fit(X[:, 0], X[:, 1], lam=0.05)
    for y in (X[:19, 0], X[:, :1]):
        with pytest.raises(LengthMismatch, match=r"one value per row: \(20,\)"):
            ridge_fit(X, y, lam=0.05)


def test_predict_basics():
    model = ridge_fit(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), lam=1.0)
    model.weights = np.array([2.0])
    model.bias = 1.0
    np.testing.assert_array_equal(ridge_predict(model, np.array([[3.0]])), [7.0])
    model.weights = np.zeros(1)
    np.testing.assert_array_equal(ridge_predict(model, np.array([[3.0], [9.0]])), [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        ridge_predict(model, np.zeros((2, 4)))
