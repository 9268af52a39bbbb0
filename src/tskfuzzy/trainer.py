"""End-to-end mini-batch training loop and the repeated-experiment suite.

One training run: initialize the model from training-set statistics, then
for each iteration sample a mini-batch, sample one drop mask per example,
take the configured optimizer step on the summed masked gradient, floor
the sigmas, and record train/test RMSE plus the batch loss and the mean
effective learning rate. A non-finite loss, gradient, parameter or RMSE
stops the run with Diverged.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import Dataset, apply_preprocessor, fit_preprocessor, sample_batch, split
from .errors import (
    DimensionMismatch,
    Diverged,
    EmptyDataset,
    EmptyTrainingSet,
    GridTooLarge,
    LengthMismatch,
    ZeroBaseline,
)
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
MAX_TRAIN_BYTES = 2**30  # train() refuses a grid whose _step_bytes() pass this


def _step_bytes(num_inputs: int, mfs_per_input: int, batch_size: int, drop_variant: str) -> int:
    """Bytes of the arrays that grow with the rule count R = Mm^M and that a
    training step holds at once, in integer arithmetic: RuleGrid.antecedents
    (intp) and incidence, 12 float64 vectors of the parameter count (the
    parameters, the gradient, the adaptive moments and the step's
    temporaries), and 3 [batch_size, R] float64 arrays of a DropRule step,
    [batch_size, R, M] under DropMembership. At R = 4**7 it bounds
    tracemalloc's peak of train() on small data."""
    M, Mm = num_inputs, mfs_per_input
    R = Mm**M
    grid = 8 * R * M * (1 + Mm)
    params = 12 * 8 * (2 * M * Mm + (M + 1) * R)
    per_row = R * M if drop_variant == "membership" else R
    return grid + params + 3 * 8 * batch_size * per_row


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
    min_lr: np.ndarray
    max_lr: np.ndarray
    seconds: float = 0.0


def fmt_decimal(value: float) -> str:
    """Decimal (never exponent) notation with 12 significant digits."""
    return np.format_float_positional(
        float(value), precision=12, unique=False, fractional=False, trim="k"
    )


def _write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row: floats in fmt_decimal, every
    other cell as str() gives it."""
    body = [",".join(fmt_decimal(c) if isinstance(c, float) else str(c) for c in row)
            for row in rows]
    Path(path).write_text("\n".join([header, *body]) + "\n", encoding="utf-8")


def write_history_csv(history: TrainHistory, path) -> None:
    """iter,train_rmse,test_rmse,loss,mean_lr — one row per iteration."""
    curves = (history.train_rmse, history.test_rmse, history.loss, history.mean_lr)
    _write_csv(path, "iter,train_rmse,test_rmse,loss,mean_lr", zip(itertools.count(1), *curves))


def rmse(model: TskModel, dataset: Dataset) -> float:
    """Root mean squared prediction error over a dataset."""
    if dataset.n == 0:
        raise EmptyDataset("RMSE of an empty dataset is undefined")
    return _rmse(dataset.y, predict(model, dataset.X))


def _rmse(y: np.ndarray, pred: np.ndarray) -> float:
    resid = y - pred
    return float(np.sqrt(np.add.reduce(resid**2) / resid.size))  # np.mean, minus its Python layer


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


def _finite(value: float, what: str, k: int) -> float:
    if not np.isfinite(value):
        raise Diverged(f"diverged at iteration {k + 1}: {what} is {value}")
    return value


# Diverged reports the first non-finite value; overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, train_set: Dataset, test_set: Dataset):
    """Run the configured optimizer for config.iterations; returns (model, history).

    Batch selection and mask sampling draw from two independent streams
    spawned from config.seed, and a batch mask that keeps everything takes
    the unmasked path, so a run whose masks keep everything is
    bit-identical to the same run without masking by construction. The
    returned model is the final iterate, not the best one seen.

    Each iteration evaluates the model once: the training and test rows
    are stacked before the loop, and one predict() over them gives both
    RMSEs. The logged batch loss is the unmasked loss at the pre-step
    parameters, taken from the batch rows of the previous evaluation (all 0
    before the first step, as the consequents start at 0), so it equals
    loss() on the batch up to the roundoff of BLAS row blocking.

    Raises, before any work: ValueError for an unknown drop_variant or
    lr_scheme, a keep_prob outside (0, 1], a negative lam, an alpha,
    alpha_final or epsilon not above 0, a beta1 or beta2 outside [0, 1), a
    batch_size or mfs_per_input below 1 or negative iterations (NaN fails
    every range); DimensionMismatch for test rows of another width than
    the training rows; EmptyDataset for an empty test set when there is an
    iteration to evaluate; GridTooLarge when _step_bytes() of the grid and
    batch passes MAX_TRAIN_BYTES. Raises Diverged, naming the iteration
    (counted from 1, as in the history CSV) and the first bad coordinate,
    at the first non-finite batch loss, gradient or parameter, and at the
    first non-finite train or test RMSE, so no history holds one.
    """
    if train_set.n == 0:
        raise EmptyTrainingSet("training set has no examples")
    if config.drop_variant not in ("none", *KEEP_AXES):
        raise ValueError(f"unknown drop_variant {config.drop_variant!r}")
    if config.lr_scheme not in LR_SCHEMES:
        raise ValueError(f"unknown lr_scheme {config.lr_scheme!r}")
    if not 0.0 < config.keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {config.keep_prob}")
    if not config.lam >= 0.0:
        raise ValueError(f"lam must be >= 0, got {config.lam}")
    for name in ("alpha", "alpha_final", "epsilon"):
        if not getattr(config, name) > 0.0:
            raise ValueError(f"{name} must be > 0, got {getattr(config, name)}")
    for name in ("beta1", "beta2"):
        if not 0.0 <= getattr(config, name) < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {getattr(config, name)}")
    if not config.batch_size >= 1:
        raise ValueError(f"batch_size must be >= 1, got {config.batch_size}")
    if not config.iterations >= 0:
        raise ValueError(f"iterations must be >= 0, got {config.iterations}")
    if test_set.X.shape[1:] != train_set.X.shape[1:]:
        raise DimensionMismatch(
            f"test rows have shape {test_set.X.shape[1:]}, training rows {train_set.X.shape[1:]}"
        )
    if config.iterations and test_set.n == 0:
        raise EmptyDataset("RMSE of an empty dataset is undefined")
    if not config.mfs_per_input >= 1:
        raise ValueError(f"mfs_per_input must be >= 1, got {config.mfs_per_input}")
    M, batch = train_set.X.shape[1], min(config.batch_size, train_set.n)
    nbytes = _step_bytes(M, config.mfs_per_input, batch, config.drop_variant)
    if nbytes > MAX_TRAIN_BYTES:
        raise GridTooLarge(
            f"a grid of {config.mfs_per_input}**{M} = {config.mfs_per_input**M} rules needs"
            f" {nbytes} bytes per training step, over the {MAX_TRAIN_BYTES}-byte limit"
        )

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
    hist = np.empty((6, K))  # train_rmse, test_rmse, loss, mean_lr, min_lr, max_lr
    n_train = train_set.n
    X_eval = np.concatenate([train_set.X, test_set.X])
    # Predictions of the current model on every training row. init_model
    # starts every consequent at 0, so before the first step they are all 0.
    train_pred = np.zeros(n_train)
    t0 = time.perf_counter()
    for k in range(K):
        idx = sample_batch(train_set, config.batch_size, batch_rng)
        Xb, yb = train_set.X[idx], train_set.y[idx]
        masks = sample_masks(variant, grid, len(idx), config.keep_prob, mask_rng) if variant else None
        g = gradients(model, Xb, yb, config.lam, masks)
        batch_loss = _finite(_objective(model, yb - train_pred[idx], config.lam), "batch loss", k)
        _check_finite(g, "gradient of", k, grid)

        if config.lr_scheme == "jang":
            jang = jang_update_lr(jang, batch_loss)
            theta = sgd_step(theta, g, jang.alpha)
            lr = (jang.alpha,) * 3  # one global rate is its own mean, min and max
        else:
            if config.lr_scheme == "adam":
                lo, up = 0.0, np.inf
            else:
                lo = bound_l(moments.k + 1, config.beta2, config.alpha_final)
                up = bound_u(moments.k + 1, config.beta2, config.alpha_final)
            theta, moments = adabound_step(moments, theta, g, hyper, lo, up)
            rates = moments.last_rates
            lr = (np.add.reduce(rates) / rates.size, rates.min(), rates.max())

        theta[n_mf : 2 * n_mf] = np.maximum(theta[n_mf : 2 * n_mf], SIGMA_MIN)
        _check_finite(theta, "parameter", k, grid)
        model = TskModel(grid, *_param_views(theta, grid))  # views, no copies

        pred = predict(model, X_eval)
        train_pred = pred[:n_train]
        hist[:, k] = (
            _finite(_rmse(train_set.y, train_pred), "train RMSE", k),
            _finite(_rmse(test_set.y, pred[n_train:]), "test RMSE", k),
            batch_loss,
            *lr,
        )
    seconds = time.perf_counter() - t0

    return model, TrainHistory(*hist, seconds)


@dataclass
class RidgeConfig:
    """Marks an algorithm slot as the closed-form linear baseline."""

    lam: float = 0.05


def _ridge_history(cfg: RidgeConfig, train_set: Dataset, test_set: Dataset) -> TrainHistory:
    """One closed-form fit as a one-entry history; its learning rates are 0."""
    t0 = time.perf_counter()
    lin = ridge_fit(train_set.X, train_set.y, cfg.lam)
    seconds = time.perf_counter() - t0
    pred = ridge_predict(lin, train_set.X)
    resid = train_set.y - pred
    objective = 0.5 * float(resid @ resid) + 0.5 * cfg.lam * float(lin.weights @ lin.weights)
    test_rmse = _rmse(test_set.y, ridge_predict(lin, test_set.X))
    hist = np.array([[_rmse(train_set.y, pred), test_rmse, objective, 0.0, 0.0, 0.0]]).T
    return TrainHistory(*hist, seconds)


def _mean_histories(histories: list[TrainHistory]) -> TrainHistory:
    return TrainHistory(*(np.mean([getattr(h, f.name) for h in histories], axis=0)
                          for f in fields(TrainHistory)))


def run_suite(configs, dataset: Dataset, repeats: int = 10, seed: int = 0):
    """Run every configured algorithm over repeated fresh splits.

    configs maps an algorithm name to a TrainConfig or a RidgeConfig. Each
    repeat draws a fresh seeded 70/30 split, fits the preprocessor on the
    training portion only, and runs all algorithms on that identical split
    with identical training seeds (so their batch sequences are paired).
    Histories are averaged pointwise across repeats. A ridge history holds
    one entry per curve, with learning rates of 0.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    collected = {name: [] for name in configs}
    for j in range(repeats):
        tr, te = split(dataset, 0.7, np.random.default_rng((seed, j, 0)))
        pre = fit_preprocessor(tr)
        tr_p = apply_preprocessor(pre, tr)
        te_p = apply_preprocessor(pre, te)
        for name, cfg in configs.items():
            if isinstance(cfg, RidgeConfig):
                hist = _ridge_history(cfg, tr_p, te_p)
            else:
                _, hist = train(replace(cfg, seed=(seed, j, 1)), tr_p, te_p)
            collected[name].append(hist)
    return {name: _mean_histories(hists) for name, hists in collected.items()}
