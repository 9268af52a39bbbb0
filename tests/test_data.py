"""CSV ingestion, preprocessing (z-scores, centering, PCA), splitting,
and batch sampling."""

import csv
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tskfuzzy import (
    Dataset,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    make_synthetic,
    sample_batch,
    split,
)
from tskfuzzy import data as data_module
from tskfuzzy.errors import (
    ConstantFeature,
    DimensionMismatch,
    LengthMismatch,
    MissingTarget,
    NonFiniteValue,
    NonNumericTarget,
    ParseError,
    SchemaMismatch,
    TooSmall,
    TskFuzzyError,
)


SAME_AS_CELL_BY_CELL = {  # load_csv inputs, each read as the cell-by-cell path reads it
    "underscore": "a,y\n1_0,2\n3,4\n",
    "quoted numbers": 'a,y\n"1.5",2\n3,"4"\n',
    "blank and whitespace-only rows": "\na,y\n\n1,2\n   \n , \n3,4\n",
    "categorical column": "s,a,y\nM,1,2\nF,3,4\n",
    "nan cell": "a,y\n1,2\nnan,4\n",
    "nan target": "a,y\n1,2\n3,nan\n",
    "padded cells and CRLF": "a, y \r\n 1 ,2\r\n3,\t4\r\n",
    "wrong cell count": "a,y\n1,2\n3,4,5\n",
    "header only": "a,y\n",
    "missing target": "a,b\n1,2\n",
}


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

    def test_numeric_file_is_parsed_in_one_call(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("a,y,b\n1.5,2,-3e2\n4,5,6\n")
        monkeypatch.setattr(data_module, "_load_csv_cells", None)
        d = load_csv(path, "y")
        np.testing.assert_array_equal(d.X, [[1.5, -300.0], [4.0, 6.0]])
        np.testing.assert_array_equal(d.y, [2.0, 5.0])
        assert d.feature_names == ["a", "b"] and d.X.flags.c_contiguous and d.y.flags.c_contiguous

    @pytest.mark.parametrize("text", SAME_AS_CELL_BY_CELL.values(), ids=list(SAME_AS_CELL_BY_CELL))
    def test_same_dataset_or_error_as_cell_by_cell(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        outcomes = []
        for read in (load_csv, data_module._load_csv_cells):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    d = read(path, "y")
                    outcome = (d.X.tobytes(), d.X.shape, d.y.tobytes(), d.feature_names)
                except TskFuzzyError as exc:
                    outcome = (type(exc), str(exc))
            outcomes.append((outcome, [str(w.message) for w in caught]))
        assert outcomes[0] == outcomes[1]

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, monkeypatch):
        """Spreadsheet exports often start with a UTF-8 byte-order mark. Both
        parse paths drop it, so the first column can be named as the target."""
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfa,y\n1,2\n3,4\n")
        cells = data_module._load_csv_cells
        monkeypatch.setattr(data_module, "_load_csv_cells", None)  # load_csv must not fall back
        for read in (load_csv, cells):
            assert read(path, "y").feature_names == ["a"]
            d = read(path, "a")
            assert d.feature_names == ["y"]
            np.testing.assert_array_equal(d.y, [1.0, 3.0])

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


# Cells of generated tables: finite numbers in several float() spellings,
# non-finite ones and words, each possibly quoted and padded.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.4e}"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1e3", "-0.0", "0", ".5", "5.", "+3", "1_0", "-1_000.5", "-1E-3"]),
)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-nan"])
WORDS = st.sampled_from(["M", "F", "red", "n/a", "", "0x10", "1,5", "1 0"])
PADS = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def cells(draw, values):
    text = draw(PADS) + draw(values) + draw(PADS)
    if draw(st.integers(0, 4)) == 0:
        text = f'"{text}"'
        if draw(st.integers(0, 9)) == 0:
            text = " " + text  # csv keeps the quotes of a cell that starts with a space
    return text


@st.composite
def csv_tables(draw):
    """(file text, target name): a header, then data rows mixed with blank,
    whitespace-only and ragged rows; an optional categorical first column
    and byte-order mark; \\n or \\r\\n line ends."""
    names = [f"c{j}" for j in range(draw(st.integers(1, 4)))]
    categorical = draw(st.booleans())
    if categorical:
        names.insert(0, "s")
    target = draw(st.sampled_from([*names * 4, "absent"]))
    odd, in_20 = cells(st.one_of(NON_FINITE, WORDS)), draw(st.sampled_from([0, 1, 4]))
    number = st.integers(0, 19).flatmap(lambda i: odd if i < in_20 else cells(FINITE))
    lines = [""] * draw(st.integers(0, 1)) + [",".join(draw(PADS) + n for n in names)]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["data"] * 20 + ["blank", "spaces", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " , "])))
        else:
            width = len(names) + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            row = [draw(cells(WORDS)) if categorical and j == 0 else draw(number)
                   for j in range(width)]
            lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + end.join(lines) + end * draw(st.integers(0, 1)), target


def _plain_number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _plain_csv_reader(path, target):
    """load_csv written with csv and float() alone: (X, y, names), or the
    error it raises."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 2:
        raise ParseError("no data rows")
    header = [h.strip() for h in rows[0]]
    if target not in header:
        raise MissingTarget(target)
    t = header.index(target)
    if any(len(row) != len(header) for row in rows[1:]):
        raise ParseError("ragged row")
    first = rows[1]
    if _plain_number(first[t]) is None:
        raise NonNumericTarget(target)
    cols = [j for j in range(len(header)) if j != t and _plain_number(first[j]) is not None]
    X, y = [], []
    for row in rows[1:]:
        y.append(_plain_number(row[t]))
        if y[-1] is None:
            raise NonNumericTarget(row[t])
        X.append([_plain_number(row[j]) for j in cols])
        if None in X[-1]:
            raise ParseError(row)
    return np.array(X, dtype=float).reshape(len(y), len(cols)), np.array(y), [header[j] for j in cols]


def _outcome(read, path, target):
    """What read returns, as bytes and names, or its error; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = read(path, target)
            X, y, names = (got.X, got.y, got.feature_names) if isinstance(got, Dataset) else got
            outcome = (X.tobytes(), X.shape, y.tobytes(), names)
        except TskFuzzyError as exc:
            outcome = (type(exc), str(exc))
    return outcome, [str(w.message) for w in caught]


def _refuse(*args, **kwargs):
    raise ValueError("np.loadtxt is switched off")


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_load_csv_matches_a_plain_csv_reader(table):
    """load_csv gives what csv + float() give, or an error of the same type,
    and its np.loadtxt path and its cell-by-cell path agree exactly,
    warnings and messages included."""
    text, target = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = _outcome(load_csv, path, target)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "loadtxt", _refuse)
            assert _outcome(load_csv, path, target) == got
        plain = _outcome(_plain_csv_reader, path, target)[0]
    if isinstance(plain[0], type):  # the plain reader raised
        assert got[0][0] is plain[0]
    else:
        assert got[0] == plain


class TestDataset:
    def test_default_names_one_per_column(self):
        d = Dataset(np.zeros((4, 3)), np.zeros(4))
        assert d.feature_names == ["x1", "x2", "x3"] and (d.n, d.num_features) == (4, 3)

    @pytest.mark.parametrize(
        "X, y, names, error",
        [(np.arange(5.0), np.zeros(5), [], DimensionMismatch),
         (np.zeros((2, 2, 2)), np.zeros(2), [], DimensionMismatch),
         (3.0, np.zeros(1), [], DimensionMismatch),
         (np.zeros((5, 2)), np.zeros(4), [], LengthMismatch),
         (np.zeros((5, 2)), np.zeros((5, 1)), [], LengthMismatch),
         (np.zeros((5, 2)), 1.0, [], LengthMismatch),
         (np.zeros((5, 2)), np.zeros(5), ["a"], LengthMismatch),
         (np.zeros((5, 2)), np.zeros(5), ["a", "b", "c"], LengthMismatch)],
        ids=["1-d X", "3-d X", "scalar X", "short y", "column y", "scalar y", "short names",
             "long names"],
    )
    def test_shape_checked_when_built(self, X, y, names, error):
        with pytest.raises(error):
            Dataset(X, y, names)

    @pytest.mark.parametrize(
        "X, y, message",
        [([[0.0, 1.0], [2.0, np.nan]], [0.0, 1.0], "row 1, column 'b' is nan"),
         ([[0.0, 1.0], [np.inf, np.nan]], [0.0, np.nan], "row 1, column 'a' is inf"),
         ([[0.0, 1.0], [2.0, 3.0]], [0.0, -np.inf], "row 1, column 'y' is -inf")],
        ids=["nan cell", "first of two", "infinite target"],
    )
    def test_non_finite_cell_named_when_built(self, X, y, message):
        with pytest.raises(NonFiniteValue, match=f"^{message}$"):
            Dataset(X, y, ["a", "b"])


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

    @pytest.mark.parametrize("ratio", [np.nan, 0.0, 1.0, 2.0, -0.5])
    def test_ratio_checked(self, ratio):
        d = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0))
        with pytest.raises(ValueError, match="^ratio must be in "):
            split(d, ratio, np.random.default_rng(0))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            split(Dataset(np.zeros((1, 2)), np.zeros(1)), 0.7, np.random.default_rng(0))

    def test_rng_is_required(self):
        """A split without a generator would draw from OS entropy and not be
        seed-deterministic: None is refused, a missing rng is a TypeError,
        and an integer seed splits as default_rng of it."""
        d = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0))
        with pytest.raises(ValueError, match="^rng must be a numpy Generator or a seed, got None$"):
            split(d, 0.7, None)
        with pytest.raises(TypeError):
            split(d, 0.7)
        a, b = split(d, 0.7, 3), split(d, 0.7, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0].y, b[0].y)


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

    def test_constant_column_whose_mean_rounds_rejected(self):
        """Summed down a column, ten 0.1s have a mean that is not 0.1, so
        their std is about 1e-17, not 0; the column is still constant and is
        refused by name."""
        X = np.column_stack([np.arange(10.0), np.full(10, 0.1)])
        assert X.std(axis=0, ddof=1)[1] > 0
        with pytest.raises(ConstantFeature, match="'x2'"):
            fit_preprocessor(Dataset(X, np.arange(10.0)))

    @pytest.mark.parametrize(
        "column, target, message",
        [
            (np.array([1.5e308, -1.5e308] * 5), False, "feature 'x2' has a mean or standard"),
            (np.linspace(1.6e308, 1.7e308, 10), False, "feature 'x2' has a mean or standard"),
            (np.linspace(1.6e308, 1.7e308, 10), True, "the training targets have a mean"),
        ],
        ids=["std-overflows", "mean-overflows", "target-mean-overflows"],
    )
    def test_statistics_that_overflow_rejected(self, column, target, message):
        """Finite cells whose std (squares past 1.8e308) or mean (a sum past
        it) overflows would z-score or center to zeros, infinities or NaN,
        so a feature column is refused by name, and the targets too, when
        the statistics are fitted."""
        X = np.column_stack([np.arange(10.0), np.arange(10.0) ** 2])
        y = np.arange(10.0)
        if target:
            y = column
        else:
            X[:, 1] = column
        with pytest.raises(NonFiniteValue, match=f"^{message}.* past the float range$"):
            fit_preprocessor(Dataset(X, y))

    @pytest.mark.parametrize("value", [1.0, 0.1, 0.0])
    def test_constant_target_rejected(self, value):
        """Centered, a constant target is all 0, which every model fits
        exactly, so a run on it would report a perfect fit of nothing."""
        X = np.arange(20.0).reshape(10, 2) ** [1, 2]
        with pytest.raises(ConstantFeature, match="training targets are constant"):
            fit_preprocessor(Dataset(X, np.full(10, value)))

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

    def test_rng_is_required(self):
        d = Dataset(np.zeros((50, 1)), np.zeros(50))
        with pytest.raises(ValueError, match="^rng must be a numpy Generator or a seed, got None$"):
            sample_batch(d, 20, None)
        np.testing.assert_array_equal(
            sample_batch(d, 20, 4), sample_batch(d, 20, np.random.default_rng(4))
        )

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
