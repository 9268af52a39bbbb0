"""CSV ingestion, preprocessing (z-scores, centering, PCA), splitting,
and batch sampling."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tskfuzzy import (
    Dataset,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    make_synthetic,
    sample_batch,
    split,
)
from tskfuzzy.errors import (
    ConstantFeature,
    MissingTarget,
    NonNumericTarget,
    ParseError,
    SchemaMismatch,
    TooSmall,
)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(path, "y")
        assert d.n == 3 and d.num_features == 2
        assert d.feature_names == ["a", "b"]
        np.testing.assert_array_equal(d.y, [3.0, 6.0, 9.0])

    def test_target_by_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n")
        d = load_csv(path, 2)
        np.testing.assert_array_equal(d.y, [3.0, 6.0])

    def test_categorical_column_dropped_with_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sex,len,y\nM,1.0,2.0\nF,3.0,4.0\n")
        with pytest.warns(UserWarning, match="sex"):
            d = load_csv(path, "y")
        assert d.feature_names == ["len"]
        assert d.num_features == 1

    def test_bad_cell_names_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\noops,4\n")
        with pytest.raises(ParseError, match="row 3.*'a'"):
            load_csv(path, "y")

    def test_missing_target(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MissingTarget):
            load_csv(path, "y")
        with pytest.raises(MissingTarget):
            load_csv(path, 5)

    def test_non_numeric_target(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,high\n2,low\n")
        with pytest.raises(NonNumericTarget):
            load_csv(path, "y")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\nnan,4\n")
        with pytest.raises(ParseError):
            load_csv(path, "y")

    def test_bool_path_raises_type_error_and_keeps_stdout(self):
        """open(True) would open file descriptor 1 and close it on the way
        out, so this runs in its own interpreter."""
        script = (
            "import os\n"
            "from tskfuzzy import load_csv\n"
            "try:\n"
            "    load_csv(True, 'y')\n"
            "except TypeError as exc:\n"
            "    os.fstat(1)\n"
            "    print('TypeError:', exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("TypeError: ") and "bool" in done.stdout


class TestSplit:
    def test_seven_three(self):
        d = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0))
        tr, te = split(d, 0.7, np.random.default_rng(0))
        assert tr.n == 7 and te.n == 3

    def test_disjoint_and_exhaustive(self):
        d = Dataset(np.arange(30.0).reshape(15, 2), np.arange(15.0))
        tr, te = split(d, 0.7, np.random.default_rng(1))
        merged = sorted(np.concatenate([tr.y, te.y]).tolist())
        assert merged == d.y.tolist()

    def test_seed_deterministic(self):
        d = Dataset(np.arange(30.0).reshape(15, 2), np.arange(15.0))
        a = split(d, 0.7, np.random.default_rng(42))
        b = split(d, 0.7, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].y, b[1].y)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            split(Dataset(np.zeros((1, 2)), np.zeros(1)), 0.7, np.random.default_rng(0))


class TestPreprocessor:
    def test_no_pca_below_limit(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.standard_normal((50, 4)) * 3 + 1, rng.standard_normal(50))
        pre = fit_preprocessor(d)
        assert pre.projection is None
        out = apply_preprocessor(pre, d)
        assert out.num_features == 4
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.X.std(axis=0, ddof=1), 1.0, atol=1e-10)
        assert abs(out.y.sum()) < 1e-8

    def test_pca_reduces_to_limit(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.standard_normal((200, 13)), rng.standard_normal(200))
        pre = fit_preprocessor(d)
        out = apply_preprocessor(pre, d)
        assert out.num_features == 5
        # orthonormal projection
        gram = pre.projection.T @ pre.projection
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)
        # scores of the fitting split are uncorrelated
        cov = np.cov(out.X, rowvar=False, ddof=1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8
        # retained variances are the top ones, in order
        assert np.all(np.diff(np.diag(cov)) <= 1e-12)

    def test_identity_when_already_standardized(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        d = Dataset(X, rng.standard_normal(100))
        out = apply_preprocessor(fit_preprocessor(d), d)
        np.testing.assert_allclose(out.X, X, atol=1e-10)

    def test_constant_feature_rejected(self):
        X = np.ones((10, 2))
        X[:, 0] = np.arange(10.0)
        with pytest.raises(ConstantFeature):
            fit_preprocessor(Dataset(X, np.zeros(10)))

    def test_schema_mismatch(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.standard_normal((20, 3)), rng.standard_normal(20))
        pre = fit_preprocessor(d)
        other = Dataset(rng.standard_normal((5, 4)), np.zeros(5))
        with pytest.raises(SchemaMismatch):
            apply_preprocessor(pre, other)

    def test_deterministic_eigenvector_signs(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.standard_normal((80, 7)), rng.standard_normal(80))
        p1 = fit_preprocessor(d)
        p2 = fit_preprocessor(d)
        np.testing.assert_array_equal(p1.projection, p2.projection)
        for j in range(p1.projection.shape[1]):
            i = np.argmax(np.abs(p1.projection[:, j]))
            assert p1.projection[i, j] > 0


class TestSampleBatch:
    def test_indices_distinct(self):
        d = Dataset(np.zeros((50, 1)), np.zeros(50))
        idx = sample_batch(d, 20, np.random.default_rng(0))
        assert len(set(idx.tolist())) == 20

    def test_oversized_batch_returns_all(self):
        d = Dataset(np.zeros((5, 1)), np.zeros(5))
        idx = sample_batch(d, 64, np.random.default_rng(0))
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]

    def test_uniform_frequency(self):
        """Over 10,000 draws of 10 from 100, each index shows up at rate
        0.1 within 3 sigma of the matching binomial."""
        d = Dataset(np.zeros((100, 1)), np.zeros(100))
        rng = np.random.default_rng(5)
        counts = np.zeros(100)
        for _ in range(10_000):
            counts[sample_batch(d, 10, rng)] += 1
        freq = counts / 10_000
        tol = 3 * np.sqrt(0.1 * 0.9 / 10_000)
        assert np.max(np.abs(freq - 0.1)) < tol


def test_make_synthetic_shape_and_noise():
    d = make_synthetic(1500, seed=0)
    assert d.X.shape == (1500, 5) and d.y.shape == (1500,)
    resid = d.y - np.sin(d.X[:, 0]) * d.X[:, 1]
    assert 0.09 < resid.std() < 0.11
    d2 = make_synthetic(1500, seed=0)
    np.testing.assert_array_equal(d.X, d2.X)
