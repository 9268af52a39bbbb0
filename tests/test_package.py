"""The package namespace, its cold start and `python -m tskfuzzy`."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tskfuzzy
from tskfuzzy import apply_preprocessor, fit_preprocessor, make_synthetic, ridge_fit, split

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}

# Run in a fresh interpreter, because this one has loaded scipy.linalg: one
# MBGD-RDA run and the rest of the model API must not load it; the first
# ridge baseline loads it, off its clock.
COLD_START = """
import json, sys
import numpy as np
from tskfuzzy import (RidgeConfig, TrainConfig, apply_preprocessor, fit_preprocessor,
                      gradients, load_model, loss, make_synthetic, predict, ridge_fit,
                      save_model, split, train, trainer)
tr, te = split(make_synthetic(60), 0.7, np.random.default_rng(0))
pre = fit_preprocessor(tr)
tr, te = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
model, _ = train(TrainConfig(iterations=2), tr, te)
predict(model, te.X)
loss(model, te.X, te.y, 0.05)
gradients(model, te.X, te.y, 0.05)
save_model(model, sys.argv[1])
load_model(sys.argv[1])
after_training = "scipy.linalg" in sys.modules
seconds = trainer._ridge_history(RidgeConfig(), tr, te).seconds
lin = ridge_fit(tr.X, tr.y, 0.05)
print(json.dumps(dict(after_training=after_training, seconds=seconds,
                      after_ridge="scipy.linalg" in sys.modules,
                      weights=[float.hex(float(w)) for w in lin.weights],
                      bias=float.hex(lin.bias))))
"""


def test_every_exported_name_exists():
    """A name left in __all__ after its definition is removed would break
    `from tskfuzzy import *`."""
    missing = [name for name in tskfuzzy.__all__ if not hasattr(tskfuzzy, name)]
    assert missing == []
    assert len(set(tskfuzzy.__all__)) == len(tskfuzzy.__all__)


def test_training_leaves_scipy_linalg_unloaded_and_ridge_untimed(tmp_path):
    """Importing scipy.linalg takes about 0.24 s, so a first ridge fit that
    timed it would report well over 0.05 s for a fit of microseconds."""
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "model.txt")],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["after_training"] is False
    assert out["seconds"] < 0.05
    assert out["after_ridge"] is True
    tr, _ = split(make_synthetic(60), 0.7, np.random.default_rng(0))
    tr = apply_preprocessor(fit_preprocessor(tr), tr)
    lin = ridge_fit(tr.X, tr.y, 0.05)
    assert out["weights"] == [float.hex(float(w)) for w in lin.weights]
    assert out["bias"] == float.hex(lin.bias)


def _cli_imports(tmp_path, algos: str):
    """python -X importtime -m tskfuzzy on the synthetic problem: the exit
    code and whether scipy.linalg was imported."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tskfuzzy", "--data", "synthetic",
         "--algos", algos, "--repeats", "1", "--set", "iterations=2", "--out", str(tmp_path)],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    loaded = re.search(r"\|\s+scipy\.linalg$", done.stderr, re.MULTILINE) is not None
    return done.returncode, loaded


def test_module_entry_point_loads_scipy_linalg_only_for_ridge(tmp_path):
    assert _cli_imports(tmp_path / "mbgd", "MBGD") == (0, False)
    assert (tmp_path / "mbgd" / "history_MBGD.csv").exists()
    assert _cli_imports(tmp_path / "both", "RR,MBGD") == (0, True)
    assert (tmp_path / "both" / "summary.csv").read_text().startswith("algo,")
