"""End-to-end mini-batch training loop and the repeated-experiment suite.

One training run: initialize the model from training-set statistics, then
for each iteration sample a mini-batch, sample one drop mask per example,
take the configured optimizer step on the summed masked gradient, floor
the sigmas, and record train/test RMSE plus the batch loss and the mean
effective learning rate. A non-finite loss, gradient, parameter or RMSE
stops the run with Diverged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, apply_preprocessor, fit_preprocessor, sample_batch, split
from .errors import Diverged, EmptyDataset, EmptyTrainingSet, LengthMismatch, ZeroBaseline
from .loss import _objective, gradients
from .masks import KEEP_AXES, sample_masks
from .model import (
    SIGMA_MIN,
    RuleGrid,
    TskModel,
    _param_name,
    _param_views,
    flatten,
    init_model_from_data,
    predict,
)
from .optim import (
    AdaBoundHyper,
    JangLrState,
    MomentState,
    adabound_step,
    bound_l,
    bound_u,
    jang_update_lr,
    sgd_step,
)
from .ridge import ridge_fit, ridge_predict

LR_SCHEMES = ("jang", "adam", "adabound")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults are the full method: DropRule at keep probability 0.5, l2
    coefficient 0.05, bounded adaptive rates from alpha 0.01.
    """

    mfs_per_input: int = 2
    iterations: int = 500
    batch_size: int = 64
    keep_prob: float = 0.5
    alpha: float = 0.01
    lam: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    alpha_final: float = 0.01
    drop_variant: str = "rule"
    lr_scheme: str = "adabound"
    seed: int | tuple = 0


@dataclass
class TrainHistory:
    """Per-iteration curves of one run (or the pointwise mean of several)."""

    train_rmse: np.ndarray
    test_rmse: np.ndarray
    loss: np.ndarray
    mean_lr: np.ndarray
    seconds: float = 0.0
    min_lr: np.ndarray | None = None
    max_lr: np.ndarray | None = None


def fmt_decimal(value: float) -> str:
    """Decimal (never exponent) notation with 12 significant digits."""
    return np.format_float_positional(
        float(value), precision=12, unique=False, fractional=False, trim="k"
    )


def write_history_csv(history: TrainHistory, path) -> None:
    """iter,train_rmse,test_rmse,loss,mean_lr — one row per iteration."""
    lines = ["iter,train_rmse,test_rmse,loss,mean_lr"]
    for i in range(len(history.test_rmse)):
        lines.append(
            f"{i + 1},{fmt_decimal(history.train_rmse[i])},{fmt_decimal(history.test_rmse[i])},"
            f"{fmt_decimal(history.loss[i])},{fmt_decimal(history.mean_lr[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def rmse(model: TskModel, dataset: Dataset) -> float:
    """Root mean squared prediction error over a dataset."""
    if dataset.n == 0:
        raise EmptyDataset("RMSE of an empty dataset is undefined")
    return _rmse(dataset.y, predict(model, dataset.X))


def _rmse(y: np.ndarray, pred: np.ndarray) -> float:
    resid = y - pred
    return float(np.sqrt(np.mean(resid**2)))


def percent_improvement(baseline, other) -> np.ndarray:
    """Element-wise 100 * (baseline - other) / baseline."""
    baseline = np.asarray(baseline, dtype=float)
    other = np.asarray(other, dtype=float)
    if baseline.shape != other.shape:
        raise LengthMismatch(f"curves differ in shape: {baseline.shape} vs {other.shape}")
    if np.any(baseline == 0.0):
        raise ZeroBaseline("baseline curve contains zeros")
    return 100.0 * (baseline - other) / baseline


def _check_finite(values: np.ndarray, what: str, k: int, grid: RuleGrid) -> None:
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise Diverged(
            f"diverged at iteration {k + 1}: {what} {_param_name(i, grid)} is {values[i]}"
        )


def _finite_rmse(value: float, which: str, k: int) -> float:
    if not np.isfinite(value):
        raise Diverged(f"diverged at iteration {k + 1}: {which} RMSE is {value}")
    return value


# Diverged reports the first non-finite value; overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, train_set: Dataset, test_set: Dataset):
    """Run the configured optimizer for config.iterations; returns (model, history).

    Batch selection and mask sampling draw from two independent streams
    spawned from config.seed, and a batch mask that keeps everything takes
    the unmasked path, so a run whose masks keep everything is
    bit-identical to the same run without masking by construction. The
    returned model is the final iterate, not the best one seen. The logged
    batch loss is the unmasked loss at the pre-step parameters. Raises
    Diverged, naming the iteration (counted from 1, as in the history CSV)
    and the first bad coordinate, at the first non-finite batch loss,
    gradient or parameter, and at the first non-finite train or test RMSE,
    so no history holds one.
    """
    if train_set.n == 0:
        raise EmptyTrainingSet("training set has no examples")
    if config.drop_variant not in ("none", *KEEP_AXES):
        raise ValueError(f"unknown drop_variant {config.drop_variant!r}")
    if config.lr_scheme not in LR_SCHEMES:
        raise ValueError(f"unknown lr_scheme {config.lr_scheme!r}")
    if not 0.0 < config.keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {config.keep_prob}")

    model = init_model_from_data(train_set.X, config.mfs_per_input)
    grid = model.grid
    theta = flatten(model)
    n_mf = model.num_inputs * model.mfs_per_input
    variant = None if config.drop_variant == "none" else config.drop_variant

    batch_seq, mask_seq = np.random.SeedSequence(config.seed).spawn(2)
    batch_rng = np.random.default_rng(batch_seq)
    mask_rng = np.random.default_rng(mask_seq)

    hyper = AdaBoundHyper(
        config.alpha, config.beta1, config.beta2, config.epsilon, config.alpha_final
    )
    moments = MomentState.zeros(theta.size)
    jang = JangLrState(config.alpha)

    K = config.iterations
    hist_train = np.empty(K)
    hist_test = np.empty(K)
    hist_loss = np.empty(K)
    hist_lr = np.empty(K)
    hist_lr_min = np.empty(K)
    hist_lr_max = np.empty(K)

    train_pred = None  # predictions of the current model on every training row
    t0 = time.perf_counter()
    for k in range(K):
        idx = sample_batch(train_set, config.batch_size, batch_rng)
        Xb, yb = train_set.X[idx], train_set.y[idx]
        masks = sample_masks(variant, grid, len(idx), config.keep_prob, mask_rng) if variant else None
        g = gradients(model, Xb, yb, config.lam, masks)
        pred_b = predict(model, Xb) if train_pred is None else train_pred[idx]
        batch_loss = _objective(model, yb - pred_b, config.lam)
        if not np.isfinite(batch_loss):
            raise Diverged(f"diverged at iteration {k + 1}: batch loss is {batch_loss}")
        _check_finite(g, "gradient of", k, grid)

        if config.lr_scheme == "jang":
            jang = jang_update_lr(jang, batch_loss)
            theta = sgd_step(theta, g, jang.alpha)
            lr_mean = lr_min = lr_max = jang.alpha
        else:
            if config.lr_scheme == "adam":
                lo, up = 0.0, np.inf
            else:
                lo = bound_l(moments.k + 1, config.beta2, config.alpha_final)
                up = bound_u(moments.k + 1, config.beta2, config.alpha_final)
            theta, moments = adabound_step(moments, theta, g, hyper, lo, up)
            rates = moments.last_rates
            lr_mean = float(rates.mean())
            lr_min = float(rates.min())
            lr_max = float(rates.max())

        theta[n_mf : 2 * n_mf] = np.maximum(theta[n_mf : 2 * n_mf], SIGMA_MIN)
        _check_finite(theta, "parameter", k, grid)
        model = TskModel(grid, *_param_views(theta, grid))  # views, no copies

        train_pred = predict(model, train_set.X)
        hist_train[k] = _finite_rmse(_rmse(train_set.y, train_pred), "train", k)
        hist_test[k] = _finite_rmse(rmse(model, test_set), "test", k)
        hist_loss[k] = batch_loss
        hist_lr[k] = lr_mean
        hist_lr_min[k] = lr_min
        hist_lr_max[k] = lr_max
    seconds = time.perf_counter() - t0

    return model, TrainHistory(
        hist_train, hist_test, hist_loss, hist_lr, seconds, hist_lr_min, hist_lr_max
    )


@dataclass
class RidgeConfig:
    """Marks an algorithm slot as the closed-form linear baseline."""

    lam: float = 0.05


def _ridge_history(cfg: RidgeConfig, train_set: Dataset, test_set: Dataset) -> TrainHistory:
    t0 = time.perf_counter()
    lin = ridge_fit(train_set.X, train_set.y, cfg.lam)
    seconds = time.perf_counter() - t0
    tr_resid = train_set.y - ridge_predict(lin, train_set.X)
    te_resid = test_set.y - ridge_predict(lin, test_set.X)
    objective = 0.5 * float(tr_resid @ tr_resid) + 0.5 * cfg.lam * float(
        lin.weights @ lin.weights
    )
    return TrainHistory(
        train_rmse=np.array([np.sqrt(np.mean(tr_resid**2))]),
        test_rmse=np.array([np.sqrt(np.mean(te_resid**2))]),
        loss=np.array([objective]),
        mean_lr=np.array([0.0]),
        seconds=seconds,
    )


def _mean_histories(histories: list[TrainHistory]) -> TrainHistory:
    def avg(attr):
        stacked = [getattr(h, attr) for h in histories]
        if any(s is None for s in stacked):
            return None
        return np.mean(stacked, axis=0)

    return TrainHistory(
        train_rmse=avg("train_rmse"),
        test_rmse=avg("test_rmse"),
        loss=avg("loss"),
        mean_lr=avg("mean_lr"),
        seconds=float(np.mean([h.seconds for h in histories])),
        min_lr=avg("min_lr"),
        max_lr=avg("max_lr"),
    )


def run_suite(configs, dataset: Dataset, repeats: int = 10, seed: int = 0, max_dims: int = 5):
    """Run every configured algorithm over repeated fresh splits.

    configs maps an algorithm name to a TrainConfig or a RidgeConfig. Each
    repeat draws a fresh seeded 70/30 split, fits the preprocessor on the
    training portion only, and runs all algorithms on that identical split
    with identical training seeds (so their batch sequences are paired).
    Histories are averaged pointwise across repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    collected = {name: [] for name in configs}
    for j in range(repeats):
        tr, te = split(dataset, 0.7, np.random.default_rng((seed, j, 0)))
        pre = fit_preprocessor(tr, max_dims)
        tr_p = apply_preprocessor(pre, tr)
        te_p = apply_preprocessor(pre, te)
        for name, cfg in configs.items():
            if isinstance(cfg, RidgeConfig):
                collected[name].append(_ridge_history(cfg, tr_p, te_p))
            else:
                run_cfg = replace(cfg, seed=(seed, j, 1))
                _, hist = train(run_cfg, tr_p, te_p)
                collected[name].append(hist)
    return {name: _mean_histories(hists) for name, hists in collected.items()}
