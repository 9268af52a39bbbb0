"""Experiment command line: run one algorithm or a whole suite on a CSV
dataset (or the bundled synthetic problem) and write RMSE curves,
improvement curves, and a summary table to disk.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import Dataset, load_csv, make_synthetic
from .errors import ConstantFeature, GridTooLarge, MissingTarget, SchemaMismatch, TooSmall
from .loss import finite_diff_grad, gradients
from .model import RuleGrid, TskModel, param_count
from .trainer import (
    RidgeConfig,
    TrainConfig,
    fmt_decimal,
    percent_improvement,
    run_suite,
    write_history_csv,
)

# Stock configurations: the linear baseline, the plain mini-batch trainer
# with the adaptive global rate, and its regularization / DropRule /
# bounded-adaptive-rate combinations, plus the alternate drop variants and
# the unbounded (Adam) variant.
ALGORITHMS = {
    "RR": dict(ridge=True),
    "MBGD": dict(lam=0.0, drop_variant="none", lr_scheme="jang"),
    "MBGD-R": dict(lam=0.05, drop_variant="none", lr_scheme="jang"),
    "MBGD-D": dict(lam=0.0, drop_variant="rule", lr_scheme="jang"),
    "MBGD-RD": dict(lam=0.05, drop_variant="rule", lr_scheme="jang"),
    "MBGD-A": dict(lam=0.0, drop_variant="none", lr_scheme="adabound"),
    "MBGD-RDA": dict(lam=0.05, drop_variant="rule", lr_scheme="adabound"),
    "MBGD-RDA-MF": dict(lam=0.05, drop_variant="mf", lr_scheme="adabound"),
    "MBGD-RDA-Membership": dict(lam=0.05, drop_variant="membership", lr_scheme="adabound"),
    "MBGD-RD-Adam": dict(lam=0.05, drop_variant="rule", lr_scheme="adam"),
}
DEFAULT_ALGOS = ["RR", "MBGD", "MBGD-R", "MBGD-D", "MBGD-RD", "MBGD-A", "MBGD-RDA"]


@dataclass
class ExperimentSpec:
    """Everything one experiment needs: dataset, algorithms, repeats, outputs."""

    data: str
    target: object = None
    algos: list = field(default_factory=lambda: list(DEFAULT_ALGOS))
    repeats: int = 10
    seed: int = 0
    out_dir: str = "results"
    overrides: dict = field(default_factory=dict)


def algorithm_config(name: str, overrides: dict | None = None):
    """Resolve an algorithm name to its stock config, with field overrides."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
    entry = ALGORITHMS[name]
    overrides = overrides or {}
    if entry.get("ridge"):
        return RidgeConfig(lam=float(overrides.get("lam", 0.05)))
    cfg = TrainConfig(**entry)
    valid = {f.name for f in dataclasses.fields(TrainConfig)}
    bad = set(overrides) - valid
    if bad:
        raise ValueError(f"unknown config fields: {sorted(bad)}")
    return replace(cfg, **overrides)


def _load_stage(spec: ExperimentSpec) -> Dataset:
    if spec.data == "synthetic":
        return make_synthetic()
    if spec.target is None:
        raise MissingTarget("a --target column is required for CSV datasets")
    return load_csv(spec.data, spec.target)


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the spec end to end; returns 0 on success, nonzero otherwise."""
    try:
        dataset = _load_stage(spec)
        configs = {name: algorithm_config(name, spec.overrides) for name in spec.algos}
        iterative = [c for c in configs.values() if isinstance(c, TrainConfig)]
        unused = [] if iterative else [k for k in spec.overrides if k != "lam"]
        if unused:
            raise ValueError(f"--set {unused[0]!r} has no effect on a ridge-only run")
        if any(c.iterations < 1 for c in iterative):
            raise ValueError("iterations must be >= 1: the summary needs a best iteration")
        if spec.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {spec.repeats}")
    except Exception as exc:
        print(f"error in load: {exc}", file=sys.stderr)
        return 1
    try:
        suite = run_suite(configs, dataset, repeats=spec.repeats, seed=spec.seed)
    except (ConstantFeature, SchemaMismatch, TooSmall) as exc:
        print(f"error in preprocess: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error in train: {exc}", file=sys.stderr)
        return 1
    try:
        _write_stage(spec, configs, suite)
    except OSError as exc:
        print(f"error in write: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_stage(spec: ExperimentSpec, configs: dict, suite: dict) -> None:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    iterative = [n for n in spec.algos if not isinstance(configs[n], RidgeConfig)]
    for name in iterative:
        write_history_csv(suite[name], out / f"history_{name}.csv")
    if "MBGD" in spec.algos:
        base = suite["MBGD"].test_rmse
        for name in iterative:
            if name == "MBGD":
                continue
            curve = percent_improvement(base, suite[name].test_rmse)
            lines = ["iter,percent"]
            lines += [f"{i + 1},{fmt_decimal(p)}" for i, p in enumerate(curve)]
            (out / f"improvement_{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["algo,best_test_rmse,best_iter,mean_final_test_rmse,seconds"]
    for name in spec.algos:
        hist = suite[name]
        if isinstance(configs[name], RidgeConfig):
            best = final = float(hist.test_rmse[0])
            best_iter = 0
        else:
            best_iter = int(np.argmin(hist.test_rmse)) + 1
            best = float(hist.test_rmse[best_iter - 1])
            final = float(hist.test_rmse[-1])
        lines.append(f"{name},{fmt_decimal(best)},{best_iter},{fmt_decimal(final)},{hist.seconds:.3f}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_gradient_check_report(
    num_inputs: int, mfs_per_input: int, trials: int, seed: int, path
) -> Path:
    """Compare analytic and central-difference gradients on random instances
    and write max/median relative error to a small report file."""
    if mfs_per_input**num_inputs > 1024:
        raise GridTooLarge(
            f"grid of {mfs_per_input}**{num_inputs} rules exceeds the 1024-rule check limit"
        )
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
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


GRAD_CHECK_KEYS = dict(M=int, Mm=int, trials=int)  # the --set keys of --grad-check


def _parse_set(pairs: list[str]) -> dict:
    """Parse repeated key=value overrides with TrainConfig field types, or
    the GRAD_CHECK_KEYS. seed is not one: run_suite derives every run's
    seed from --seed."""
    casts = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig) if f.name != "seed"}
    casts.update(GRAD_CHECK_KEYS)
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in casts:
            raise ValueError(f"unknown --set key {key!r} (known: {sorted(casts)}; seed is --seed)")
        out[key] = casts[key](value)
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
    settings = {"data": None, "target": None, "algos": None, "repeats": 10,
                "seed": 0, "out": "results", "set": {}}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error in load: {exc}", file=sys.stderr)
            return 1
        for key in settings:
            if key in loaded:
                settings[key] = loaded[key]
    for key in ("data", "target", "algos", "repeats", "seed", "out"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    try:
        if not isinstance(settings["set"], dict):
            raise ValueError(f'config "set" must map keys to values, got {settings["set"]!r}')
        if not isinstance(settings["out"], str):
            raise ValueError(f'config "out" must be a path string, got {settings["out"]!r}')
        overrides = _parse_set([f"{k}={v}" for k, v in settings["set"].items()] + args.set)
        unused = [k for k in overrides if (k in GRAD_CHECK_KEYS) != args.grad_check]
        if unused:
            mode = "--grad-check" if args.grad_check else "training"
            raise ValueError(f"--set {unused[0]!r} has no effect on a {mode} run")
        repeats, seed = int(settings["repeats"]), int(settings["seed"])
    except (TypeError, ValueError) as exc:
        print(f"error in load: {exc}", file=sys.stderr)
        return 1

    if args.grad_check:
        out = Path(settings["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
            report = emit_gradient_check_report(
                overrides.get("M", 2), overrides.get("Mm", 2),
                overrides.get("trials", 100), seed, out / "grad_check.txt",
            )
        except ValueError as exc:
            print(f"error in train: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error in write: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {report}")
        return 0

    if settings["data"] is None:
        print("error in load: --data is required", file=sys.stderr)
        return 1
    algos = settings["algos"]
    if isinstance(algos, str):
        algos = [a.strip() for a in algos.split(",") if a.strip()]
    target = settings["target"]
    if isinstance(target, str) and target.lstrip("-").isdigit():
        target = int(target)
    spec = ExperimentSpec(
        data=settings["data"],
        target=target,
        algos=algos or list(DEFAULT_ALGOS),
        repeats=repeats, seed=seed,
        out_dir=settings["out"],
        overrides=overrides,
    )
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
