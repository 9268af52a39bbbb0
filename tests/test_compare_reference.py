"""scripts/compare_reference.py, the bit-identity check against another
source tree, tells identical training from changed training."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def compare_against(tree: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_reference.py"), "--against", str(tree),
         "--mfs", "2", "--iterations", "3", "--rows", "120"],
        capture_output=True, text=True, timeout=300,
    )


def test_own_tree_is_identical():
    done = compare_against(ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all identical"


def test_changed_constant_differs(tmp_path):
    """A sigma floor of 10 binds from the first step on z-scored data, so
    every iterative algorithm's history and parameters change."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "src" / "tskfuzzy" / "model.py"
    text = model.read_text(encoding="utf-8")
    assert text.count("\nSIGMA_MIN = 1e-4 ") == 1
    model.write_text(text.replace("\nSIGMA_MIN = 1e-4 ", "\nSIGMA_MIN = 10.0 "), encoding="utf-8")
    done = compare_against(tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "DIFFERS" in done.stdout
    assert done.stdout.splitlines()[-1].endswith("runs differ")


def test_changed_public_entry_differs(tmp_path):
    """firing_levels is public only: training never calls it, so only the
    comparison of the public entry points sees a change to it."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "src" / "tskfuzzy" / "model.py"
    text = model.read_text(encoding="utf-8")
    line = "    return np.exp(_log_firing(model, _log_grades(model, X), variant, keep))[0]\n"
    assert text.count(line) == 1
    model.write_text(text.replace(line, line[:-1] + " * (1 + 2**-52)\n"), encoding="utf-8")
    done = compare_against(tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    differ = [ln for ln in done.stdout.splitlines() if "DIFFERS" in ln]
    assert len(differ) == 1 and differ[0].startswith("public entry points DIFFERS"), done.stdout
