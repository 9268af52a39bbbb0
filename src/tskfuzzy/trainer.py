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
import math
import time
from dataclasses import dataclass, fields
from functools import cached_property
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
from .loss import _gradients, _objective
from .masks import KEEP_AXES, draw_masks
from .model import (
    SIGMA_MIN,
    RuleGrid,
    TskModel,
    _evaluate,
    _EvalWork,
    _log_grades,
    _param_name,
    _param_views,
    flatten,
    init_model_from_data,
    predict,
)
from .optim import (
    JangLrState,
    MomentState,
    _adabound_step,
    _sgd_step,
    bound_l,
    bound_u,
    jang_update_lr,
)
from .ridge import ridge_fit, ridge_predict

LR_SCHEMES = ("jang", "adam", "adabound")
MAX_TRAIN_BYTES = 2**30  # train() refuses a grid whose _step_bytes() pass this
MAX_RECORD_BYTES = 2**24  # a split records no batch indices of a run that needs more


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


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run, checked when built.

    Defaults are the full method: DropRule at keep probability 0.5, l2
    coefficient 0.05, bounded adaptive rates from alpha 0.01 whose bounds
    converge to alpha_final. A field out of range or of the wrong type
    raises ValueError naming it (NaN fails every range; an integer field
    takes a Python or numpy integer, not a bool, and holds it as an int; a
    float field takes a Python or numpy integer or float, not a bool, and
    holds it as a finite float; seed is not None). A config is frozen:
    dataclasses.replace() makes a changed copy and checks it again.
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

    def __post_init__(self):
        if self.drop_variant not in ("none", *KEEP_AXES):
            raise ValueError(f"unknown drop_variant {self.drop_variant!r}")
        if self.lr_scheme not in LR_SCHEMES:
            raise ValueError(f"unknown lr_scheme {self.lr_scheme!r}")
        for name in ("keep_prob", "alpha", "lam", "beta1", "beta2", "epsilon", "alpha_final"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        for name in ("alpha", "alpha_final", "epsilon"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name, low in (("batch_size", 1), ("iterations", 0), ("mfs_per_input", 1)):
            value = _number(name, getattr(self, name), integer=True)  # numpy's Mm**M would wrap
            if not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, value)
        _seed_sequence(self.seed)


def _number(name: str, value, integer: bool = False):
    """value as an int when integer, else as a float; ValueError naming
    name unless value is a Python or numpy integer (or, when not integer,
    float) and not a bool, or for an infinity or a number past the float range."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if math.isinf(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _seed_sequence(seed) -> np.random.SeedSequence:
    """np.random.SeedSequence(seed), or ValueError naming the seed where
    that raises, and for None, which would seed from the operating system."""
    try:
        if seed is not None:
            return np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


@dataclass(frozen=True)
class RidgeConfig:
    """The closed-form linear baseline's penalty, checked and held as
    TrainConfig's lam: a negative, infinite or NaN lam, a bool or a value
    that is not a number raises ValueError."""

    lam: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "lam", _number("lam", self.lam))
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")


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


def _check_finite(values: np.ndarray, what: str, k: int, grid: RuleGrid, ok: np.ndarray) -> None:
    """Raise Diverged naming the first non-finite entry of values; ok is a
    bool array of values' shape that receives np.isfinite."""
    if not np.logical_and.reduce(np.isfinite(values, out=ok)):
        i = int(np.flatnonzero(~ok)[0])
        raise Diverged(
            f"diverged at iteration {k + 1}: {what} {_param_name(i, grid)} is {values[i]}"
        )


def _finite(value: float, what: str, k: int) -> float:
    if not math.isfinite(value):
        raise Diverged(f"diverged at iteration {k + 1}: {what} is {value}")
    return value


class _RunWork:
    """What the runs of a split on one grid and batch size share: the grid
    and flat parameters theta of init_model_from_data on the training rows;
    the working arrays, namely the evaluation's buffers (model._EvalWork,
    whose scratch the gradient borrows), the batch's [M, Mm, batch]
    log-grades and its [2, batch, M, Mm] distances x - c and (x - c)**2,
    which the log-grades are computed from and the gradient reuses, the
    flat gradient, the step temporary, the bool vector of the finiteness
    checks and the l2 term's [R, M] buffer; and drawn, the batch indices
    drawn so far, with rng, the generator that continues them. A run
    overwrites each working array before it reads it, except eval.pred,
    which _Split.start resets."""

    def __init__(self, prepared: _Split, mfs_per_input: int, batch: int):
        initial = init_model_from_data(prepared.train_set.X, mfs_per_input)
        self.grid, self.theta, self.batch = initial.grid, flatten(initial), batch
        grid, size = self.grid, self.theta.size
        self.eval = _EvalWork(grid, prepared.rows[0].shape[0], batch)
        self.batch_log_mu = np.empty((grid.num_inputs, grid.mfs_per_input, batch))
        self.dist = np.empty((2, batch, grid.num_inputs, grid.mfs_per_input))
        self.grad, self.step_tmp = np.empty(size), np.empty(size)
        self.finite = np.empty(size, dtype=bool)
        self.sq = np.empty((grid.num_rules, grid.num_inputs))
        self.drawn, self.rng = [], np.random.default_rng(prepared.batch_seq)


class _Split:
    """A train/test split and the training seed of its runs, with what they
    all compute the same way: the batch and mask streams spawned from the
    seed (batch_seq, mask_seq), the stacked rows, and one _RunWork per grid
    and batch size, keyed by (mfs_per_input, batch). Each is a
    deterministic function of the split, the grid and the seed, so a run
    reads the same values whether it computes them or an earlier run did.

    A run gets a flat copy of the entry's initial parameters and its
    working arrays, with pred reset to 0. A later run of the entry reads
    the recorded indices and draws on where they stop; they cost
    iterations * batch * 8 bytes (256 KiB at the stock 500 iterations of
    64 rows), and a run whose indices would pass MAX_RECORD_BYTES draws
    its own instead. Entries of two grids draw the same indices for a
    batch size, each from its own copy of the stream.
    """

    def __init__(self, train_set: Dataset, test_set: Dataset, seed):
        self.train_set, self.test_set = train_set, test_set
        self.batch_seq, self.mask_seq = _seed_sequence(seed).spawn(2)
        self._works = {}  # (mfs_per_input, batch) -> _RunWork

    @cached_property
    def rows(self):
        """The [N, M] training then test rows, which the evaluation reads
        through the view X_eval.T, and the [n_train, M + 1] training rows
        as (1, x)."""
        X_eval = np.concatenate([self.train_set.X, self.test_set.X])
        design = np.empty((self.train_set.n, X_eval.shape[1] + 1))
        design[:, 0], design[:, 1:] = 1.0, self.train_set.X
        return X_eval, design

    def start(self, mfs_per_input: int, batch: int):
        """(theta, model, work) of a fresh run: theta a flat copy of the
        initial parameters, to be updated in place, model a TskModel of its
        views, and work the _RunWork of the grid and batch size, whose
        eval.pred is 0."""
        key = (mfs_per_input, batch)
        if key not in self._works:
            self._works[key] = _RunWork(self, mfs_per_input, batch)
        work = self._works[key]
        theta = work.theta.copy()
        model = TskModel(work.grid, *_param_views(theta, work.grid))
        work.eval.pred.fill(0.0)
        return theta, model, work

    def batches(self, iterations: int, work: _RunWork):
        """The run's batch indices, one array of work.batch rows per
        iteration, as sample_batch draws them from default_rng(batch_seq),
        each when the run asks for it."""
        if iterations * work.batch * 8 > MAX_RECORD_BYTES:
            rng = np.random.default_rng(self.batch_seq)
            for _ in range(iterations):
                yield sample_batch(self.train_set, work.batch, rng)
            return
        for k in range(iterations):
            if k == len(work.drawn):
                work.drawn.append(sample_batch(self.train_set, work.batch, work.rng))
            yield work.drawn[k]


def train(config: TrainConfig, train_set: Dataset, test_set: Dataset):
    """Run the configured optimizer for config.iterations; returns (model, history).

    Batch selection and mask sampling draw from two independent streams
    spawned from config.seed, and a batch mask that keeps everything takes
    the unmasked path, so a run whose masks keep everything is
    bit-identical to the same run without masking by construction. The
    returned model is the final iterate, not the best one seen.

    Each iteration evaluates the model once: the training and test rows
    are stacked before the loop, and one pass of predict()'s arithmetic
    over them (model._evaluate) gives both RMSEs. The logged batch loss is
    the unmasked loss at the pre-step parameters, taken from the batch rows
    of the previous evaluation (all 0 before the first step, as the
    consequents start at 0), so it equals loss() on the batch up to the
    roundoff of BLAS row blocking. Each iteration computes its batch's
    distances x - c and (x - c)**2 once: the log-grades come from them, and
    the gradient's center and sigma terms reuse them.

    The masks come from masks.draw_masks, which draws those of as many
    iterations as fit in masks.DRAW_FLOATS (8 at R=32 and batch 64) with
    one rng.random call. A DropRule row that drops every rule keeps every
    rule and takes no further numbers, so these are bit for bit the masks
    of one sample_masks call per iteration.

    The run keeps its working arrays, so an iteration allocates almost
    nothing: the parameters, which every step updates in place (so the
    model's views of them are built once), the optimizer's moments and
    rates (adam and adabound only), and a _RunWork: the evaluation's
    buffers (model._EvalWork), whose scratch the gradient borrows for its
    [batch, R] arrays, the batch's [M, Mm, batch] log-grades and
    [2, batch, M, Mm] distances, the flat gradient, one step temporary and
    an [R, M] buffer for the l2 term. Its _Split also records the batch
    indices, as run_suite's do.

    Raises, before any work (the config checked its own fields when
    built): EmptyTrainingSet for an empty training set; TooSmall for a
    training set of one row, which has no sample std to initialize the MF
    widths with (init_model_from_data); DimensionMismatch
    for test rows of another width than the training rows; EmptyDataset
    for an empty test set when there is an iteration to evaluate;
    GridTooLarge when _step_bytes() of the grid and batch passes
    MAX_TRAIN_BYTES. Raises Diverged, naming the iteration
    (counted from 1, as in the history CSV) and the first bad coordinate,
    at the first non-finite batch loss, gradient or parameter, and at the
    first non-finite train or test RMSE, so no history holds one.
    """
    return _train(config, _Split(train_set, test_set, config.seed))


# Diverged reports the first non-finite value; overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def _train(config: TrainConfig, prepared: _Split):
    """train() of config on the rows and with the seed of prepared, not
    config.seed, starting from what prepared holds or computes for the run."""
    train_set, test_set = prepared.train_set, prepared.test_set
    if train_set.n == 0:
        raise EmptyTrainingSet("training set has no examples")
    if test_set.X.shape[1:] != train_set.X.shape[1:]:
        raise DimensionMismatch(
            f"test rows have shape {test_set.X.shape[1:]}, training rows {train_set.X.shape[1:]}"
        )
    if config.iterations and test_set.n == 0:
        raise EmptyDataset("RMSE of an empty dataset is undefined")
    M, batch = train_set.X.shape[1], min(config.batch_size, train_set.n)
    nbytes = _step_bytes(M, config.mfs_per_input, batch, config.drop_variant)
    if nbytes > MAX_TRAIN_BYTES:
        raise GridTooLarge(
            f"a grid of {config.mfs_per_input}**{M} = {config.mfs_per_input**M} rules needs"
            f" {nbytes} bytes per training step, over the {MAX_TRAIN_BYTES}-byte limit"
        )

    theta, model, work = prepared.start(config.mfs_per_input, batch)
    grid = model.grid
    K = config.iterations
    masks = itertools.repeat((None, None))
    if config.drop_variant != "none":
        mask_rng = np.random.default_rng(prepared.mask_seq)
        masks = draw_masks(config.drop_variant, grid, batch, config.keep_prob, mask_rng, K)

    if config.lr_scheme == "jang":
        jang = JangLrState(config.alpha)
    else:
        moments = MomentState.zeros(theta.size)

    hist = np.empty((6, K))  # train_rmse, test_rmse, loss, mean_lr, min_lr, max_lr
    X_eval, design = prepared.rows
    # Predictions of the current model on every training row. init_model
    # starts every consequent at 0, so before the first step they are all
    # 0, as work.eval.pred starts.
    train_pred, test_pred = work.eval.pred[: train_set.n], work.eval.pred[train_set.n :]
    t0 = time.perf_counter()
    for k, idx in enumerate(prepared.batches(K, work)):
        yb = train_set.y[idx]
        rows = design[idx]
        log_mu = _log_grades(model, rows[:, 1:], work.batch_log_mu, work.dist)
        # (variant, keep) of the batch's mask, bound to no name that would
        # hold it through the next draw
        g = _gradients(
            model, rows, yb, config.lam, *next(masks),
            log_mu, work.dist, work.eval.scratch, work.grad, work.sq,
        )
        batch_loss = _objective(model, yb - train_pred[idx], config.lam, work.sq)
        _finite(batch_loss, "batch loss", k)
        _check_finite(g, "gradient of", k, grid, work.finite)

        if config.lr_scheme == "jang":
            jang = jang_update_lr(jang, batch_loss)
            _sgd_step(theta, g, jang.alpha, work.step_tmp)
            lr = (jang.alpha,) * 3  # one global rate is its own mean, min and max
        else:
            if config.lr_scheme == "adam":
                lo, up = 0.0, np.inf
            else:
                lo = bound_l(moments.k + 1, config.beta2, config.alpha_final)
                up = bound_u(moments.k + 1, config.beta2, config.alpha_final)
            _adabound_step(moments, theta, g, config, lo, up, work.step_tmp)
            rates = moments.last_rates
            lr = (np.add.reduce(rates) / rates.size, np.minimum.reduce(rates),
                  np.maximum.reduce(rates))

        np.maximum(model.sigmas, SIGMA_MIN, out=model.sigmas)
        _check_finite(theta, "parameter", k, grid, work.finite)

        _evaluate(model, X_eval, work.eval)
        hist[:, k] = (
            _finite(_rmse(train_set.y, train_pred), "train RMSE", k),
            _finite(_rmse(test_set.y, test_pred), "test RMSE", k),
            batch_loss,
            *lr,
        )
    seconds = time.perf_counter() - t0

    return model, TrainHistory(*hist, seconds)


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


def run_suite(configs, dataset: Dataset, repeats: int, seed: int):
    """Run every configured algorithm over repeated fresh splits.

    configs maps an algorithm name to a TrainConfig or a RidgeConfig. Each
    repeat j draws a fresh seeded 70/30 split, fits the preprocessor on the
    training portion only, and runs all algorithms on that identical split
    with the training seed (seed, j, 1), not their own (so their batch
    sequences are paired), through one _Split that computes once what they
    share: the stacked rows and, per grid and batch size, the initial
    model, the working arrays and the batch indices. So each history is
    the one train() gives on that split and seed, bit for bit. Histories
    are averaged pointwise across repeats. A ridge history holds one entry
    per curve, with learning rates of 0. A repeats that is not a Python or
    numpy integer, or is a bool or below 1, and a bad seed raise
    ValueError before any split.
    """
    repeats = _number("repeats", repeats, integer=True)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    _seed_sequence(seed)
    collected = {name: [] for name in configs}
    for j in range(repeats):
        tr, te = split(dataset, 0.7, np.random.default_rng((seed, j, 0)))
        pre = fit_preprocessor(tr)
        tr_p = apply_preprocessor(pre, tr)
        te_p = apply_preprocessor(pre, te)
        prepared = _Split(tr_p, te_p, (seed, j, 1))
        for name, cfg in configs.items():
            if isinstance(cfg, RidgeConfig):
                hist = _ridge_history(cfg, tr_p, te_p)
            else:
                _, hist = _train(cfg, prepared)
            collected[name].append(hist)
    return {name: _mean_histories(hists) for name, hists in collected.items()}
