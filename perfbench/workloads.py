"""Workload definitions, input generation and output checks.

Every input is derived from the benchmark seed and a dataset index, so the
same seed always gives the same inputs; the program under test receives
only the generated data and a config. Each run cycles over the workload's
datasets, so that its quality figure is a mean over several problems
rather than the luck of one small split.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROGRAM = "tskfuzzy"  # the package under test, imported from src/
REFERENCE = "tskfuzzy_ref"  # the frozen copy under reference/

# The ten stock algorithm names of the command line. Spelled out here so the
# workload stays the same even if the registry's defaults change.
SUITE_ALGOS = (
    "RR", "MBGD", "MBGD-R", "MBGD-D", "MBGD-RD", "MBGD-A", "MBGD-RDA",
    "MBGD-RDA-MF", "MBGD-RDA-Membership", "MBGD-RD-Adam",
)
SUITE_ITERATIVE = tuple(a for a in SUITE_ALGOS if a != "RR")
SUITE_QUALITY_ALGO = "MBGD-RDA"
CSV_COLUMNS = 12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "train" times one train() call of stock MBGD-RDA (DropRule keep
    0.5, AdaBound, batch 64, lambda 0.05) on make_synthetic rows split
    70/30; kind "cli" times one cli.main() over every stock algorithm on
    a 12-column CSV. A call takes 0.2-1 s, so that a run holds many
    pairs of calls (see run.py).

    ref_call_s and ref_setup_s are the median times of one measured call
    and of one set-up done by the reference copy (see Package) on the
    machine the benchmark was defined on: 2 x86_64 vCPUs of a shared host,
    Python 3.11, numpy 2.4 with OpenBLAS on one thread.
    """

    name: str
    kind: str
    rows: int
    mfs_per_input: int
    iterations: int
    datasets: int
    ref_call_s: float
    ref_setup_s: float
    repeats: int = 1

    def iterations_per_call(self) -> int:
        if self.kind == "cli":
            return self.iterations * self.repeats * len(SUITE_ITERATIVE)
        return self.iterations


WORKLOADS = {
    w.name: w
    for w in (
        # R=32 on 210/90 rows: evaluation is cheap, so per-call Python work
        # (64 mask draws per iteration, unflatten, the optimizer, the extra
        # loss forward) is about half the run. Mask and loop changes show here.
        Workload("small-rule", "train", rows=300, mfs_per_input=2, iterations=100, datasets=24, ref_call_s=0.25, ref_setup_s=0.48),
        # R=1024 on 1050/450 rows: [N, R, M] forward arithmetic and memory
        # dominate and masks barely register, so a mask change should move
        # nothing here.
        Workload("grid-1024", "train", rows=1500, mfs_per_input=4, iterations=5, datasets=4, ref_call_s=0.98, ref_setup_s=0.46),
        # Every stock algorithm through the command line: all four drop
        # variants, the jang/adam/adabound schemes, ridge, CSV load, PCA
        # 12 -> 5 and output writing.
        Workload("suite-cli", "cli", rows=1000, mfs_per_input=2, iterations=5, datasets=4, ref_call_s=0.45, ref_setup_s=0.47, repeats=2),
    )
}


class Package:
    """The modules of one copy of the package: PROGRAM or REFERENCE.

    The reference copy is the package as it was when the benchmark was
    defined, kept unchanged. The measured calls and set-ups alternate with
    the same work done by that copy, which a shared machine slows down just
    as much, so that their times can be taken relative to it (see run.py).
    Modules are looked up by their full names because the package namespace
    rebinds some module names to functions, and calls go through the module
    globals so that the tracer's wrappers see them.
    """

    def __init__(self, name: str):
        self.top = importlib.import_module(name)
        self.trainer = importlib.import_module(f"{name}.trainer")
        self.cli = importlib.import_module(f"{name}.cli")


def csv_path(out_dir: Path, workload: Workload, seed: int, k: int) -> Path:
    return out_dir / "inputs" / f"{workload.name}-seed{seed}-{k}.csv"


def write_inputs(out_dir: Path, workload: Workload, seed: int) -> None:
    """Write the CSV inputs of a cli workload: the five synthetic inputs
    mixed linearly into CSV_COLUMNS columns plus a little noise, so the
    12 -> 5 PCA of the preprocessor keeps the signal. The data come from the
    reference copy, so a change to the program cannot change its inputs."""
    if workload.kind != "cli":
        return
    ref = Package(REFERENCE)
    for k in range(workload.datasets):
        data = ref.top.make_synthetic(workload.rows, seed=(seed, k, 0))
        rng = np.random.default_rng((seed, k, 3))
        mix = rng.standard_normal((data.num_features, CSV_COLUMNS))
        X = data.X @ mix + 0.01 * rng.standard_normal((workload.rows, CSV_COLUMNS))
        header = [f"c{j + 1}" for j in range(CSV_COLUMNS)] + ["y"]
        lines = [",".join(header)]
        lines += [",".join(repr(float(v)) for v in (*row, t)) for row, t in zip(X, data.y)]
        path = csv_path(out_dir, workload, seed, k)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Inputs:
    """One prepared dataset: the preprocessed split that the first training
    iteration sees, plus the CSV path for cli workloads."""

    k: int
    train: object  # the Dataset type of the package copy that prepared it
    test: object
    csv: Path | None = None


def prepare(out_dir: Path, workload: Workload, seed: int, k: int, pkg: Package) -> Inputs:
    """Everything before the first training iteration: data generation or
    CSV load, split, and the fitted preprocessor. For cli workloads this is
    the CLI's first repeat, done with the same calls and seeds run_suite uses."""
    if workload.kind == "cli":
        path = csv_path(out_dir, workload, seed, k)
        data = pkg.top.load_csv(path, "y")
        split_rng = np.random.default_rng((seed, 0, 0))
    else:
        path = None
        data = pkg.top.make_synthetic(workload.rows, seed=(seed, k, 0))
        split_rng = np.random.default_rng((seed, k, 1))
    tr, te = pkg.top.split(data, 0.7, split_rng)
    pre = pkg.top.fit_preprocessor(tr)
    return Inputs(k, pkg.top.apply_preprocessor(pre, tr), pkg.top.apply_preprocessor(pre, te), path)


def train_config(workload: Workload, seed: int, k: int, pkg: Package):
    return pkg.top.TrainConfig(
        mfs_per_input=workload.mfs_per_input, iterations=workload.iterations, seed=(seed, k, 2)
    )


def cli_argv(workload: Workload, seed: int, inputs: Inputs, out: Path) -> list[str]:
    return [
        "--data", str(inputs.csv), "--target", "y",
        "--algos", ",".join(SUITE_ALGOS), "--repeats", str(workload.repeats),
        "--seed", str(seed), "--out", str(out),
        "--set", f"iterations={workload.iterations}",
    ]


class CheckFailed(Exception):
    """An output of the measured call is wrong."""


@dataclass
class Outcome:
    """What one measured call produced, reduced to what the checks and the
    metrics need."""

    final_test_rmse: float
    digest: str


def run_train(workload: Workload, seed: int, inputs: Inputs, pkg: Package):
    """The measured call of a train workload; returns what check_train needs."""
    return pkg.trainer.train(train_config(workload, seed, inputs.k, pkg), inputs.train, inputs.test)


def check_train(workload: Workload, inputs: Inputs, result, pkg: Package) -> Outcome:
    model, hist = result
    curves = [hist.train_rmse, hist.test_rmse, hist.loss, hist.mean_lr, hist.min_lr, hist.max_lr]
    if any(c is None or len(c) != workload.iterations for c in curves):
        raise CheckFailed(f"history does not have {workload.iterations} rows per curve")
    if not all(np.all(np.isfinite(c)) for c in curves):
        raise CheckFailed("history has a non-finite value")
    recomputed = pkg.trainer.rmse(model, inputs.test)
    if recomputed != hist.test_rmse[-1]:
        raise CheckFailed(
            f"rmse(model, test) = {recomputed!r} but the last test_rmse is {hist.test_rmse[-1]!r}"
        )
    h = hashlib.sha256()
    for c in curves:
        h.update(np.ascontiguousarray(c, dtype=np.float64).tobytes())
    return Outcome(float(hist.test_rmse[-1]), h.hexdigest())


def run_cli(workload: Workload, seed: int, inputs: Inputs, out: Path, pkg: Package) -> int:
    """The measured call of a cli workload; returns main()'s exit code."""
    return pkg.cli.main(cli_argv(workload, seed, inputs, out))


def _finite_rows(path: Path, header: str, fields: int) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header is not {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != fields:
            raise CheckFailed(f"{path.name}: row {row} does not have {fields} fields")
        if not all(math.isfinite(float(v)) for v in row[1:]):
            raise CheckFailed(f"{path.name}: non-finite value in row {row}")
    return rows


def check_cli(workload: Workload, out: Path, code: int) -> Outcome:
    if code != 0:
        raise CheckFailed(f"cli.main returned {code}")
    h = hashlib.sha256()
    histories = sorted(out.glob("history_*.csv"))
    expected = sorted(out / f"history_{a}.csv" for a in SUITE_ITERATIVE)
    if histories != expected:
        raise CheckFailed(f"history files {[p.name for p in histories]} are not one per iterative algorithm")
    for path in histories:
        rows = _finite_rows(path, "iter,train_rmse,test_rmse,loss,mean_lr", 5)
        if len(rows) != workload.iterations:
            raise CheckFailed(f"{path.name} has {len(rows)} rows, expected {workload.iterations}")
        h.update(path.read_bytes())
    summary = _finite_rows(
        out / "summary.csv", "algo,best_test_rmse,best_iter,mean_final_test_rmse,seconds", 5
    )
    if sorted(r[0] for r in summary) != sorted(SUITE_ALGOS):
        raise CheckFailed(f"summary.csv rows {[r[0] for r in summary]} are not one per algorithm")
    for row in summary:
        h.update(",".join(row[:-1]).encode())  # the seconds column is wall-clock
    final = next(float(r[3]) for r in summary if r[0] == SUITE_QUALITY_ALGO)
    return Outcome(final, h.hexdigest())


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
