"""The package namespace, `python -m tskfuzzy` and the modules a run imports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tskfuzzy
from tskfuzzy import apply_preprocessor, fit_preprocessor, make_synthetic, ridge_fit, split
from tskfuzzy.cli import ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}

# Run in a fresh interpreter, so that sys.modules holds only what the runs
# import: `python -m tskfuzzy` over every stock algorithm, then --grad-check,
# then one ridge fit whose bits the test compares with this process's.
RUNS = """
import json, runpy, sys
before = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    sys.argv = ["tskfuzzy", *argv]
    try:
        runpy.run_module("tskfuzzy", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
import numpy as np
from tskfuzzy import apply_preprocessor, fit_preprocessor, make_synthetic, ridge_fit, split
tr, _ = split(make_synthetic(60), 0.7, np.random.default_rng(0))
tr = apply_preprocessor(fit_preprocessor(tr), tr)
lin = ridge_fit(tr.X, tr.y, 0.05)
# a module without a __spec__ was made by an extension, not found by the import system
imported = {name.split(".")[0] for name, module in sys.modules.items()
            if name not in before and getattr(module, "__spec__", None) is not None}
print(json.dumps(dict(imported=sorted(imported),
                      weights=[float.hex(float(w)) for w in lin.weights],
                      bias=float.hex(lin.bias))))
"""


def test_every_exported_name_exists():
    """A name left in __all__ after its definition is removed would break
    `from tskfuzzy import *`."""
    missing = [name for name in tskfuzzy.__all__ if not hasattr(tskfuzzy, name)]
    assert missing == []
    assert len(set(tskfuzzy.__all__)) == len(tskfuzzy.__all__)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """RUNS in one fresh interpreter: its printed record and the suite and
    grad-check output directories."""
    tmp = tmp_path_factory.mktemp("runs")
    suite, grad = tmp / "suite", tmp / "grad"
    argvs = [
        ["--data", "synthetic", "--algos", ",".join(ALGORITHMS), "--repeats", "1",
         "--set", "iterations=2", "--out", str(suite)],
        ["--grad-check", "--set", "trials=2", "--out", str(grad)],
    ]
    done = subprocess.run(
        [sys.executable, "-c", RUNS, json.dumps(argvs)],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])  # the CLI prints its own lines first
    return out, suite, grad


def test_training_leaves_scipy_linalg_unloaded_and_ridge_untimed(runs):
    """Importing scipy.linalg took about 0.24 s, so a first ridge fit that
    timed it would report well over 0.05 s for a fit of microseconds. Ridge
    now solves with numpy, so no run loads scipy at all; the first ridge fit
    of the process still takes well under 0.05 s, and its bits match this
    process's."""
    out, suite, _ = runs
    assert "scipy" not in out["imported"]
    rows = [line.split(",") for line in (suite / "summary.csv").read_text().splitlines()[1:]]
    seconds = {row[0]: float(row[4]) for row in rows}
    assert set(seconds) == set(ALGORITHMS)
    assert seconds["RR"] < 0.05

    tr, _ = split(make_synthetic(60), 0.7, np.random.default_rng(0))
    tr = apply_preprocessor(fit_preprocessor(tr), tr)
    lin = ridge_fit(tr.X, tr.y, 0.05)
    assert out["weights"] == [float.hex(float(w)) for w in lin.weights]
    assert out["bias"] == float.hex(lin.bias)


def test_module_entry_point_loads_scipy_linalg_only_for_ridge(runs):
    """`python -m tskfuzzy` over every stock algorithm, ridge included, and
    the gradient check import nothing outside the standard library but
    numpy and this package, which matches the dependencies pyproject.toml
    declares: ridge, the one run that used to load scipy.linalg, no longer
    does."""
    out, _, grad = runs
    third_party = {name for name in out["imported"] if name not in sys.stdlib_module_names}
    assert third_party == {"numpy", "tskfuzzy"}
    assert "max_relative_error=" in (grad / "grad_check.txt").read_text()

    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[\w.-]+", dep).group().lower() for dep in declared}
    assert names == third_party - {"tskfuzzy"}
