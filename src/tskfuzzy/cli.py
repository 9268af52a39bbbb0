"""Experiment command line: run one algorithm or a whole suite on a CSV
dataset (or the bundled synthetic problem) and write RMSE curves,
improvement curves, and a summary table to disk.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .data import load_csv, make_synthetic
from .errors import (
    ConstantFeature, GridTooLarge, MissingTarget, NonFiniteValue, SchemaMismatch, TooSmall
)
from .loss import finite_diff_grad, gradients
from .model import RuleGrid, TskModel, _check_grid, param_count
from .trainer import (
    RidgeConfig,
    TrainConfig,
    _seed_sequence,
    _write_csv,
    percent_improvement,
    run_suite,
    write_history_csv,
)

# Stock configurations: the linear baseline, the plain mini-batch trainer
# with the adaptive global rate, and its regularization / DropRule /
# bounded-adaptive-rate combinations, plus the alternate drop variants and
# the unbounded (Adam) variant.
ALGORITHMS = {
    "RR": RidgeConfig(),
    "MBGD": TrainConfig(lam=0.0, drop_variant="none", lr_scheme="jang"),
    "MBGD-R": TrainConfig(lam=0.05, drop_variant="none", lr_scheme="jang"),
    "MBGD-D": TrainConfig(lam=0.0, drop_variant="rule", lr_scheme="jang"),
    "MBGD-RD": TrainConfig(lam=0.05, drop_variant="rule", lr_scheme="jang"),
    "MBGD-A": TrainConfig(lam=0.0, drop_variant="none", lr_scheme="adabound"),
    "MBGD-RDA": TrainConfig(lam=0.05, drop_variant="rule", lr_scheme="adabound"),
    "MBGD-RDA-MF": TrainConfig(lam=0.05, drop_variant="mf", lr_scheme="adabound"),
    "MBGD-RDA-Membership": TrainConfig(lam=0.05, drop_variant="membership", lr_scheme="adabound"),
    "MBGD-RD-Adam": TrainConfig(lam=0.05, drop_variant="rule", lr_scheme="adam"),
}
DEFAULT_ALGOS = ["RR", "MBGD", "MBGD-R", "MBGD-D", "MBGD-RD", "MBGD-A", "MBGD-RDA"]


@dataclass
class ExperimentSpec:
    """Everything one experiment needs. The fields are the --config keys and
    their annotations the JSON types each accepts; algos may be one
    comma-separated string; None means DEFAULT_ALGOS, and algos that name
    no algorithm are refused."""

    data: str | None = None
    target: str | int | None = None
    algos: str | list | None = None
    repeats: int = 10
    seed: int = 0
    out: str = "results"
    set: dict = field(default_factory=dict)


# Types must match exactly: a bool is never an int, and null passes only where allowed
SETTING_TYPES = {k: get_args(t) or (t,) for k, t in get_type_hints(ExperimentSpec).items()}


def algorithm_config(name: str, overrides: dict | None = None):
    """The stock config of an algorithm, with the overrides of its own fields."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
    overrides = overrides or {}
    bad = set(overrides) - {f.name for f in dataclasses.fields(TrainConfig)}
    if bad:
        raise ValueError(f"unknown config fields: {sorted(bad)}")
    base = ALGORITHMS[name]
    own = {f.name for f in dataclasses.fields(base)}
    return dataclasses.replace(base, **{k: v for k, v in overrides.items() if k in own})


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the spec end to end; returns 0 on success, nonzero otherwise."""
    stage = "load"
    try:
        algos = spec.algos
        if isinstance(algos, str):
            algos = [a.strip() for a in algos.split(",") if a.strip()]
        algos = DEFAULT_ALGOS if algos is None else algos
        if not algos:
            raise ValueError(f"algos {spec.algos!r} names no algorithm")
        repeated = [a for i, a in enumerate(algos) if a in algos[:i]]
        if repeated:
            raise ValueError(f"algorithm {repeated[0]!r} is named more than once")
        target = spec.target
        if isinstance(target, str) and target.lstrip("-").isdigit():
            target = int(target)
        if spec.data != "synthetic" and target is None:
            raise MissingTarget("a --target column is required for CSV datasets")
        dataset = make_synthetic() if spec.data == "synthetic" else load_csv(spec.data, target)
        configs = {name: algorithm_config(name, spec.set) for name in algos}
        iterative = [c for c in configs.values() if isinstance(c, TrainConfig)]
        unused = [] if iterative else [k for k in spec.set if k != "lam"]
        if unused:
            raise ValueError(f"--set {unused[0]!r} has no effect on a ridge-only run")
        if any(c.iterations < 1 for c in iterative):
            raise ValueError("iterations must be >= 1: the summary needs a best iteration")
        if spec.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {spec.repeats}")
        _seed_sequence(spec.seed)
        stage = "train"
        suite = run_suite(configs, dataset, repeats=spec.repeats, seed=spec.seed)
        stage = "write"
        _write_stage(spec, configs, suite)
    except Exception as exc:
        preprocess = (ConstantFeature, NonFiniteValue, SchemaMismatch, TooSmall)
        if stage == "train" and isinstance(exc, preprocess):
            stage = "preprocess"
        print(f"error in {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_stage(spec: ExperimentSpec, configs: dict, suite: dict) -> None:
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for name, cfg in configs.items():
        test = suite[name].test_rmse
        iterative = isinstance(cfg, TrainConfig)
        if iterative:
            write_history_csv(suite[name], out / f"history_{name}.csv")
        if iterative and name != "MBGD" and "MBGD" in configs:
            curve = percent_improvement(suite["MBGD"].test_rmse, test)
            _write_csv(out / f"improvement_{name}.csv", "iter,percent", enumerate(curve, 1))
        # ridge's one closed-form fit comes before any iteration: its best_iter is 0
        best = int(np.argmin(test))
        summary.append((name, test[best], best + iterative, test[-1], f"{suite[name].seconds:.3f}"))
    header = "algo,best_test_rmse,best_iter,mean_final_test_rmse,seconds"
    _write_csv(out / "summary.csv", header, summary)


def _check_grad_settings(num_inputs: int, mfs_per_input: int, trials: int) -> None:
    """Raise ValueError for gradient check settings that cannot run: a grid
    RuleGrid refuses, GridTooLarge past 1024 rules, or negative trials."""
    # from M = 11 on, 2**M alone passes 1024: decided before the power
    if mfs_per_input >= 2 and (num_inputs >= 11 or mfs_per_input**num_inputs > 1024):
        raise GridTooLarge(
            f"grid of {mfs_per_input}**{num_inputs} rules exceeds the 1024-rule check limit"
        )
    _check_grid(num_inputs, mfs_per_input)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def emit_gradient_check_report(
    num_inputs: int, mfs_per_input: int, trials: int, seed: int, path
) -> Path:
    """Compare analytic and central-difference gradients on random instances
    and write max/median relative error to a small report file. Raises as
    _check_grad_settings() does, before any work."""
    _check_grad_settings(num_inputs, mfs_per_input, trials)
    grid = RuleGrid(num_inputs, mfs_per_input)
    path = Path(path)
    if trials == 0:
        path.write_text("", encoding="utf-8")
        return path
    rng = np.random.default_rng(seed)
    errors = []
    for t in range(trials):
        model = TskModel(
            grid,
            rng.standard_normal((num_inputs, mfs_per_input)),
            rng.uniform(0.5, 2.0, (num_inputs, mfs_per_input)),
            rng.standard_normal((grid.num_rules, num_inputs + 1)),
        )
        X = rng.standard_normal((4, num_inputs))
        y = rng.standard_normal(4)
        lam = 0.05 if t % 2 else 0.0
        analytic = gradients(model, X, y, lam)
        oracle = finite_diff_grad(model, X, y, lam, h=1e-6)
        denom = np.maximum(np.abs(oracle), 1e-8)
        errors.append(np.abs(analytic - oracle) / denom)
    errors = np.concatenate(errors)
    report = (
        f"gradient check: M={num_inputs} Mm={mfs_per_input} "
        f"params={param_count(num_inputs, mfs_per_input)} trials={trials} seed={seed}\n"
        f"max_relative_error={np.max(errors):.6e}\n"
        f"median_relative_error={np.median(errors):.6e}\n"
    )
    path.write_text(report, encoding="utf-8")
    return path


GRAD_CHECK_KEYS = dict(M=2, Mm=2, trials=100)  # the --set keys of --grad-check, with defaults


def _parse_set(pairs: list[str]) -> dict:
    """Parse repeated key=value overrides with the type of each TrainConfig
    field's default, or of a GRAD_CHECK_KEYS default. seed is not one:
    run_suite derives every run's seed from --seed."""
    known = {f.name: f.default for f in dataclasses.fields(TrainConfig) if f.name != "seed"}
    known.update(GRAD_CHECK_KEYS)
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ValueError(f"unknown --set key {key!r} (known: {sorted(known)}; seed is --seed)")
        cast = type(known[key])
        try:
            out[key] = cast(value)
        except ValueError:
            raise ValueError(f"--set {key} expects {cast.__name__}, got {value!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tskfuzzy",
        description="Train TSK fuzzy regression systems and baselines on a dataset.",
    )
    p.add_argument("--data", help="CSV path, or 'synthetic' for the bundled problem")
    p.add_argument("--target", help="target column name or 0-based index")
    p.add_argument("--algos", help="comma-separated algorithm names")
    p.add_argument("--repeats", type=int, help="independent repeats (fresh split each)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config field (repeatable)")
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    p.add_argument("--grad-check", action="store_true",
                   help="write a gradient check report instead of training")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    settings = {}
    try:
        if args.config:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(loaded, dict):
                raise ValueError(f"config must be a JSON object, got {loaded!r}")
            unknown = sorted(set(loaded) - set(SETTING_TYPES))
            if unknown:
                raise ValueError(f"unknown config keys {unknown} (known: {sorted(SETTING_TYPES)})")
            settings.update(loaded)
        for key in ("data", "target", "algos", "repeats", "seed", "out"):
            if getattr(args, key) is not None:
                settings[key] = getattr(args, key)
        for key, value in settings.items():
            if type(value) not in SETTING_TYPES[key]:
                names = " or ".join(t.__name__ for t in SETTING_TYPES[key])
                got = f"{type(value).__name__} {value!r}"
                raise ValueError(f'config "{key}" must be {names}, got {got}')
        pairs = [f"{k}={v}" for k, v in settings.get("set", {}).items()] + args.set
        spec = ExperimentSpec(**{**settings, "set": _parse_set(pairs)})
        unused = [k for k in spec.set if (k in GRAD_CHECK_KEYS) != args.grad_check]
        if unused:
            mode = "--grad-check" if args.grad_check else "training"
            raise ValueError(f"--set {unused[0]!r} has no effect on a {mode} run")
        if spec.data is None and not args.grad_check:
            raise ValueError("--data is required")
        if args.grad_check:
            checks = {**GRAD_CHECK_KEYS, **spec.set}
            _check_grad_settings(checks["M"], checks["Mm"], checks["trials"])
            _seed_sequence(spec.seed)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error in load: {exc}", file=sys.stderr)
        return 1

    if args.grad_check:
        out = Path(spec.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            report = emit_gradient_check_report(
                checks["M"], checks["Mm"], checks["trials"], spec.seed, out / "grad_check.txt"
            )
        except (OSError, ValueError) as exc:
            stage = "write" if isinstance(exc, OSError) else "train"
            print(f"error in {stage}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {report}")
        return 0
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
