"""Grid-partition TSK fuzzy regression systems with Gaussian membership functions.

A system over M inputs holds Mm shared Gaussian MFs per input and one rule
for every point of the Mm^M antecedent grid. Each rule's consequent is an
affine function of the inputs, and the system output is the firing-level
weighted average of the rule consequents.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .data import _parse_number
from .errors import ConstantFeature, DimensionMismatch, LengthMismatch, ParseError, TooSmall
from .masks import DropMask, _check_masks

SIGMA_MIN = 1e-4  # Gaussian width floor, in normalized-feature units
# Smallest sigma a model accepts: the forward divides by 2 sigma^2 and the
# gradient by sigma^3, and neither underflows to 0 from here up.
SIGMA_TINY = np.finfo(float).tiny ** (1 / 3)
EVAL_BLOCK = 2**20  # elements of a [rows, R] array that predict() evaluates at once
MAX_INPUTS = 63  # RuleGrid's np.indices holds M + 1 axes, and a numpy array at most 64


def _check_grid(num_inputs: int, mfs_per_input: int) -> None:
    """Raise ValueError for a grid that RuleGrid cannot build: fewer than one
    input or MF per input, or more than MAX_INPUTS inputs, decided before
    any M-long shape is built."""
    if num_inputs < 1 or mfs_per_input < 1:
        raise ValueError("num_inputs and mfs_per_input must both be >= 1")
    if num_inputs > MAX_INPUTS:
        raise ValueError(f"a rule grid has at most {MAX_INPUTS} inputs, got M={num_inputs}")


class RuleGrid:
    """Full grid partition: one rule per combination of per-input MF indices.

    Rule r uses MF ``antecedents[r, m]`` for input m; the last input's index
    varies fastest in the enumeration. MFs are shared across rules, so input
    m carries ``mfs_per_input`` Gaussians no matter how many rules use them.
    ``incidence[r, m * mfs_per_input + i]`` is 1.0 when rule r uses MF i of
    input m and 0.0 otherwise.
    """

    def __init__(self, num_inputs: int, mfs_per_input: int):
        _check_grid(num_inputs, mfs_per_input)
        self.num_inputs = int(num_inputs)
        self.mfs_per_input = int(mfs_per_input)
        shape = (self.mfs_per_input,) * self.num_inputs
        self.antecedents = np.indices(shape, dtype=np.intp).reshape(self.num_inputs, -1).T
        self.incidence = np.eye(self.mfs_per_input)[self.antecedents].reshape(self.num_rules, -1)

    @property
    def num_rules(self) -> int:
        return self.antecedents.shape[0]


class TskModel:
    """Trainable TSK system: a RuleGrid plus its numeric parameters.

    centers, sigmas: [M, Mm] shared Gaussian MF parameters per input.
    consequents: [R, M + 1] affine rule consequents; column 0 is the bias.

    Raises ValueError for arrays of the wrong shape, a sigma that is not
    positive or is below SIGMA_TINY, and a NaN or infinite parameter.

    Instances are treated as immutable during inference, so concurrent
    reads are safe. The arrays may be views of one flat vector in the
    flatten() layout (_param_views), which a training run updates in place.
    """

    def __init__(self, grid: RuleGrid, centers, sigmas, consequents):
        centers = np.asarray(centers, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        consequents = np.asarray(consequents, dtype=float)
        mf_shape = (grid.num_inputs, grid.mfs_per_input)
        if centers.shape != mf_shape or sigmas.shape != mf_shape:
            raise ValueError(f"centers/sigmas must have shape {mf_shape}")
        if consequents.shape != (grid.num_rules, grid.num_inputs + 1):
            raise ValueError(
                f"consequents must have shape {(grid.num_rules, grid.num_inputs + 1)}"
            )
        smallest = sigmas.min()
        if not smallest > 0:
            raise ValueError("all sigmas must be positive")
        if smallest < SIGMA_TINY:
            raise ValueError(
                f"smallest sigma {smallest} is below {SIGMA_TINY:.3g}: its cube underflows"
            )
        named = {"centers": centers, "sigmas": sigmas, "consequents": consequents}
        for name, values in named.items():
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        self.grid = grid
        self.centers = centers
        self.sigmas = sigmas
        self.consequents = consequents

    @property
    def num_inputs(self) -> int:
        return self.grid.num_inputs

    @property
    def mfs_per_input(self) -> int:
        return self.grid.mfs_per_input

    @property
    def num_rules(self) -> int:
        return self.grid.num_rules


def param_count(num_inputs: int, mfs_per_input: int) -> int:
    """Total trainable parameters: 2*M*Mm MF parameters plus (M+1)*Mm^M consequents."""
    if num_inputs < 1 or mfs_per_input < 1:
        raise ValueError("num_inputs and mfs_per_input must both be >= 1")
    # from M = 64 on, (M + 1) * 2**M alone passes int64: decided before the
    # power, which takes hours to compute at M = 10**9
    big = mfs_per_input >= 2 and num_inputs >= 64
    n = 0 if big else 2 * num_inputs * mfs_per_input + (num_inputs + 1) * mfs_per_input**num_inputs
    if big or n > np.iinfo(np.int64).max:
        raise OverflowError(
            f"parameter count of M={num_inputs}, Mm={mfs_per_input} exceeds the supported"
            " integer range"
        )
    return n


def init_model(mins, maxs, stds, mfs_per_input: int) -> TskModel:
    """Fresh model from per-input statistics.

    Centers are evenly spaced over each input's [min, max] (endpoints
    included), every width starts at the input's standard deviation, and
    all consequents start at zero. Raises ValueError for statistics that
    are not 1-D arrays of equal length or not finite, and ConstantFeature
    for an input of zero range or a standard deviation that is not positive.
    """
    mins = np.asarray(mins, dtype=float)
    maxs = np.asarray(maxs, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if not (mins.shape == maxs.shape == stds.shape) or mins.ndim != 1:
        raise ValueError("mins, maxs, stds must be 1-D arrays of equal length")
    for name, values in (("mins", mins), ("maxs", maxs), ("stds", stds)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    flat = np.flatnonzero(maxs - mins <= 0)
    if flat.size:
        raise ConstantFeature(f"input {flat[0]} has zero range")
    if np.any(stds <= 0):
        raise ConstantFeature("every input needs a positive standard deviation")
    grid = RuleGrid(mins.size, mfs_per_input)
    centers = np.linspace(mins, maxs, mfs_per_input, axis=1)
    sigmas = np.maximum(np.repeat(stds[:, None], mfs_per_input, axis=1), SIGMA_MIN)
    consequents = np.zeros((grid.num_rules, mins.size + 1))
    return TskModel(grid, centers, sigmas, consequents)


def init_model_from_data(X, mfs_per_input: int) -> TskModel:
    """init_model with min/max/std taken from the rows of X (sample std).
    Raises TooSmall for fewer than 2 rows, which have no sample std."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise TooSmall(f"initializing MFs needs at least 2 training rows, got {X.shape[0]}")
    return init_model(X.min(axis=0), X.max(axis=0), X.std(axis=0, ddof=1), mfs_per_input)


def flatten(model: TskModel) -> np.ndarray:
    """Concatenate all parameters into one vector.

    Layout, relied on by optimizer state and checkpoints: all centers
    (input-major, MF-index minor), all sigmas in the same order, then
    consequents rule-major with coefficients 0..M.
    """
    return np.concatenate(
        [model.centers.ravel(), model.sigmas.ravel(), model.consequents.ravel()]
    )


def unflatten(values, num_inputs: int, mfs_per_input: int) -> TskModel:
    """Rebuild a model from a flat vector in the flatten() layout."""
    values = np.asarray(values, dtype=float)
    expected = param_count(num_inputs, mfs_per_input)
    if values.size != expected:
        raise LengthMismatch(f"expected {expected} values, got {values.size}")
    grid = RuleGrid(num_inputs, mfs_per_input)
    return TskModel(grid, *(a.copy() for a in _param_views(values, grid)))


def _param_views(values: np.ndarray, grid: RuleGrid) -> tuple:
    """centers, sigmas and consequents as views into a flat vector in the
    flatten() layout, which must have the grid's parameter count."""
    M, Mm = grid.num_inputs, grid.mfs_per_input
    n_mf = M * Mm
    return (
        values[:n_mf].reshape(M, Mm),
        values[n_mf : 2 * n_mf].reshape(M, Mm),
        values[2 * n_mf :].reshape(grid.num_rules, M + 1),
    )


def _param_name(i: int, grid: RuleGrid) -> str:
    """Readable name of coordinate i of the flatten() layout."""
    M, Mm = grid.num_inputs, grid.mfs_per_input
    n_mf = M * Mm
    if i < 2 * n_mf:
        return f"{'center' if i < n_mf else 'sigma'}[{(i % n_mf) // Mm}, {i % Mm}]"
    r, c = divmod(i - 2 * n_mf, M + 1)
    return f"consequent[{r}, {c}]"


def save_model(model: TskModel, path) -> None:
    """Write a checkpoint: `M=`/`Mm=` header lines, then one parameter per line."""
    lines = [f"M={model.num_inputs}", f"Mm={model.mfs_per_input}"]
    lines.extend(repr(float(v)) for v in flatten(model))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> TskModel:
    """Read a checkpoint written by save_model. Raises ParseError, naming the
    file and the 1-based line, for a header that is not `M=<int>`/`Mm=<int>`
    with both at least 1, each within int()'s digit limit, M at most
    MAX_INPUTS and a parameter count that fits in int64, for a value that is
    not a finite number and for a sigma below SIGMA_TINY, and LengthMismatch
    for a wrong number of values."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 2:
        raise ParseError(f"{path}: checkpoint must start with 'M=<int>' and 'Mm=<int>' lines")
    sizes = []
    for (i, ln), key in zip(lines, ("M=", "Mm=")):
        if not (ln.startswith(key) and ln[len(key) :].lstrip("0").isdecimal()):  # an int >= 1
            raise ParseError(f"{path}, line {i}: expected '{key}<int >= 1>', got {ln!r}")
        try:
            sizes.append(int(ln[len(key) :]))
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"{path}, line {i}: {exc}") from None
    num_inputs, mfs_per_input = sizes
    try:
        _check_grid(num_inputs, mfs_per_input)
        param_count(num_inputs, mfs_per_input)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}, line {lines[0][0]}: {exc}, got {lines[0][1]!r}") from exc
    values = [_parse_number(ln) for _, ln in lines[2:]]
    n_mf = num_inputs * mfs_per_input
    for k, v in enumerate(values):
        if v is None or (n_mf <= k < 2 * n_mf and v < SIGMA_TINY):
            i, ln = lines[2 + k]
            wanted = "a finite number" if v is None else f"a sigma >= {SIGMA_TINY:.3g}"
            raise ParseError(f"{path}, line {i}: expected {wanted}, got {ln!r}")
    return unflatten(np.array(values), num_inputs, mfs_per_input)


_FLOAT_MIN, _FLOAT_MAX = np.finfo(float).min, np.finfo(float).max


def _log_floor(num_inputs: int) -> float:
    """Floor of every log-grade: a sum of M of them cannot overflow."""
    return _FLOAT_MIN / (num_inputs + 1)


# The private kernels below enter no np.errstate context of their own: each
# public entry point (predict, loss, gradients, firing_levels, train) holds
# over="ignore" once, around all of its work, and so must a direct caller.
# Under it, a row whose squared distances overflow gets floored log-grades.


def _log_grades(model: TskModel, X: np.ndarray, out=None, dist=None) -> np.ndarray:
    """[M, Mm, N] log-grades of every MF at every one of the [N, M] rows X,
    floored at _log_floor(M), read through the view X.T. They go to out, a
    C-ordered [M, Mm, N] array, or to a new one: either way the row axis is
    innermost in memory, so the per-input reductions and products run along
    it. dist, when given, is a C-ordered [2, N, M, Mm] array that receives
    x - c and (x - c)**2, from which the log-grades are then computed with
    the same bits; the gradient reuses them. Raises DimensionMismatch for
    rows whose width is not M."""
    M = model.num_inputs
    if X.ndim != 2 or X.shape[1] != M:
        raise DimensionMismatch(f"expected rows of width {M}, got array of shape {X.shape}")
    if out is None:
        out = np.empty((M, model.mfs_per_input, X.shape[0]))
    if dist is None:
        sq = np.square(np.subtract(X.T[:, None], model.centers[:, :, None], out=out), out=out)
    else:
        np.subtract(X[:, :, None], model.centers, out=dist[0])
        sq = np.square(dist[0], out=dist[1]).transpose(1, 2, 0)
    # IEEE division is sign-symmetric: the bits of negating first, one pass fewer
    log_mu = np.divide(sq, -2.0 * model.sigmas[:, :, None] ** 2, out=out)
    np.maximum(log_mu, _log_floor(M), out=log_mu)
    return log_mu


def _input_softmax(log_mu: np.ndarray, out=None, red=None) -> np.ndarray:
    """[M, Mm, N] softmax of each input's Mm log-grades at every row, each
    shifted by its largest, written to out (which may be log_mu) in log_mu's
    memory order; red, an [M, 1, N] array, holds the max and then the sum.
    The unmasked or DropMF normalized firing level of a rule is the product
    of the M softmaxes of the MFs it uses."""
    red = np.maximum.reduce(log_mu, axis=1, keepdims=True, out=red)
    out = np.subtract(log_mu, red, out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=1, keepdims=True, out=red)
    return out


def _forward(
    model: TskModel, X: np.ndarray, variant, keep, log_mu: np.ndarray, scratch: np.ndarray
) -> tuple:
    """Batched forward pass of the [N, M] rows X: (norm_firing, pred), the
    [N, R] normalized firing levels and the N outputs. variant and keep are
    a batch mask as masks._check_masks or masks.draw_masks settle it: no
    DropRule row drops every rule. log_mu is the rows' [M, Mm, N]
    log-grades as _log_grades gives them (the trainer computes them).
    scratch is a flat array of at least 2 N R floats: norm_firing is
    written to its first N R, and its second N R hold the [N, R]
    temporaries.

    Normalized firing levels are the softmax of the log firing levels.
    Unmasked or under DropMF, the firing levels of a row sum to the product
    over inputs of each input's summed grades, so the softmax is the product
    of one softmax per input over its Mm log-grades (_input_softmax, as in
    predict()): norm_firing is the transpose of their Kronecker product,
    an F-ordered [N, R], with no log and no [N, R] exp, and every row keeps
    a dominant rule at >= Mm^-M.
    DropRule and DropMembership change single rules, so their softmax is
    over each [N, R] row of log firing levels, shifted by its maximum. A
    rule's log firing level sums the log-grades of its M MFs: DropRule's
    are the product of the C-ordered [N, M * Mm] log-grades with
    RuleGrid.incidence.T, and DropMembership gathers the [N, R, M] slots,
    sets the dropped ones to 0 and adds them in input order. Either way a
    row far from every MF weights its dominant rule(s). The output is the
    row dot of norm_firing @ consequents with (1, x).

    DropRule shifts the unmasked log firing levels by the largest kept one,
    the row max of log_f - finfo.max * ~keep (a kept entry is unchanged and
    at least M * _log_floor(M) > finfo.min, a dropped one ends at or below
    finfo.min, or overflows to -inf), and multiplies by keep after the exp,
    so the exp sees only finite values: numpy 2.4's AVX-512 exp takes 9-18x
    the time over a [64, 1024] batch whose dropped half holds -inf or -800.
    Kept rules get the same bits as a softmax over -inf entries, dropped
    ones an exact +0. The shifted values are clamped at 0: a dropped rule
    that dominates the kept ones by more than log(finfo.max) would otherwise
    overflow to inf, and inf * 0 is NaN.
    """
    n, R = X.shape[0], model.num_rules
    firing, spare = scratch[: n * R], scratch[n * R : 2 * n * R]
    if variant in (None, "mf"):
        grades = log_mu if variant is None else np.where(keep.transpose(1, 2, 0), log_mu, 0.0)
        norm_firing = _kron(_input_softmax(grades), firing, spare).T
    else:  # ufunc reduces: ndarray.max and .sum add a Python layer per call
        slots = log_mu.transpose(2, 0, 1)  # [N, M, Mm]
        if variant == "rule":
            flat = np.ascontiguousarray(slots).reshape(n, -1)  # OpenBLAS sums F order otherwise
            log_f = np.matmul(flat, model.grid.incidence.T, out=firing.reshape(n, R))
            masked = np.multiply(~keep, _FLOAT_MAX, out=spare.reshape(n, R))
            log_f -= np.maximum.reduce(np.subtract(log_f, masked, out=masked), 1, keepdims=True)
            norm_firing = np.exp(np.minimum(log_f, 0.0, out=log_f), out=log_f)
            norm_firing *= keep
        else:
            M = model.num_inputs
            slots = np.where(keep, slots[:, np.arange(M), model.grid.antecedents], 0.0)
            log_f = sum(slots[:, :, m] for m in range(M))
            norm_firing = np.subtract(
                log_f, np.maximum.reduce(log_f, 1, keepdims=True), out=firing.reshape(n, R)
            )
            np.exp(norm_firing, out=norm_firing)
        norm_firing /= np.add.reduce(norm_firing, 1, keepdims=True)
    out = norm_firing @ model.consequents
    pred = out[:, 0] + np.add.reduce(out[:, 1:] * X, 1)
    return norm_firing, pred


@np.errstate(over="ignore")
def firing_levels(model: TskModel, x, mask: DropMask | None = None) -> np.ndarray:
    """Firing level of every rule for one input vector, not normalized.

    With a mask, dropped rules fire at 0 while dropped MFs or membership
    slots contribute grade 1 in place of their Gaussian value; a DropRule
    mask that drops every rule keeps every rule, as in training. Each
    rule's M floored log-grades (_log_grades) are summed in input order.
    """
    X = np.asarray(x, dtype=float)[None]
    if isinstance(mask, DropMask):
        mask = DropMask(mask.variant, np.asarray(mask.keep)[None])
    variant, keep = _check_masks(mask, model.grid, 1)
    log_mu = _log_grades(model, X)[:, :, 0]  # [M, Mm]
    if variant == "mf":
        log_mu = np.where(keep[0], log_mu, 0.0)
    M = model.num_inputs
    slots = log_mu[np.arange(M), model.grid.antecedents]  # [R, M]
    if variant == "membership":
        slots = np.where(keep[0], slots, 0.0)
    firing = np.exp(sum(slots[:, m] for m in range(M)))
    return np.where(keep[0], firing, 0.0) if variant == "rule" else firing


def rule_outputs(model: TskModel, x) -> np.ndarray:
    """Affine consequent value of every rule: b_0 + sum_m b_m x_m, [R] for
    one input vector and [N, R] for a batch of rows. Raises
    DimensionMismatch for any other shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.num_inputs:
        raise DimensionMismatch(
            f"expected rows of width {model.num_inputs}, got array of shape {x.shape}"
        )
    out = model.consequents[:, 0] + np.atleast_2d(x) @ model.consequents[:, 1:].T
    return out[0] if x.ndim == 1 else out


@np.errstate(over="ignore")
def predict(model: TskModel, x):
    """System output for one input vector or a batch of rows, unmasked:
    test-time inference never applies drop masks.

    The unmasked normalized firing level of rule r is the product over
    inputs of each input's softmax of its Mm log-grades, so the output
    contracts those per-input grades with the consequents and never forms
    the [N, R] firing matrix (_predict_rows). Its buffers are allocated
    for this call; train() evaluates through the same _evaluate with
    buffers it keeps for the run.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    pred = _evaluate(model, X, _EvalWork(model.grid, X.shape[0]))
    return float(pred[0]) if x.ndim == 1 else pred


class _EvalWork:
    """Buffers of _evaluate over N rows.

    pred holds the N outputs (0 until the first evaluation). The rows are
    evaluated in blocks, min(N, ceil(N * R / EVAL_BLOCK)) near-equal ones
    as np.array_split cuts them, so the temporaries, the block's
    log-grades among them, stay bounded in N and R. blocks holds each
    block's (lo, hi) and the views of its temporaries, in _block_shapes,
    at the front of the flat array scratch. With batch > 0, scratch also
    has room for the 2 batch R floats of a gradient's scratch (see
    _forward): the trainer lends it to the gradient step, which never runs
    during an evaluation.
    """

    def __init__(self, grid: RuleGrid, n: int, batch: int = 0):
        count = max(1, min(n, -(-n * grid.num_rules // EVAL_BLOCK)))
        q, r = divmod(n, count)
        edges = [i * q + min(i, r) for i in range(count + 1)]
        self.pred = np.zeros(n)
        shapes = {rows: _block_shapes(grid, rows) for rows in {q, q + (r > 0)}}
        block = max(sum(map(math.prod, s)) for s in shapes.values())
        self.scratch = np.empty(max(block, 2 * batch * grid.num_rules))
        views = {rows: _views(self.scratch, s) for rows, s in shapes.items()}
        self.blocks = [(lo, hi, views[hi - lo]) for lo, hi in zip(edges, edges[1:])]


def _block_shapes(grid: RuleGrid, n: int) -> tuple:
    """Shapes of the temporaries of _predict_rows on n rows: the log-grades,
    which become the per-input softmax in place, and its [M, 1, n]
    reduction, the flat Kronecker factors a and b (empty when a factor is
    one input's softmax itself), their contraction ab with the
    consequents, and the [n, M + 1] weighted consequents out."""
    M, Mm = grid.num_inputs, grid.mfs_per_input
    k = (M + 1) // 2
    return (
        (M, Mm, n),
        (M, 1, n),
        (Mm**k * n if k > 1 else 0,),
        (Mm ** (M - k) * n if M - k > 1 else 0,),
        (n, Mm ** (M - k) * (M + 1)),
        (n, M + 1),
    )


def _views(flat: np.ndarray, shapes) -> list:
    """C-ordered views of the given shapes, one after another from the
    front of the flat array flat."""
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]


def _evaluate(model: TskModel, X: np.ndarray, work: _EvalWork) -> np.ndarray:
    """predict() of the [N, M] rows X into work.pred, block by block, as
    BLAS's row blocking sets the contraction's bits. Returns work.pred."""
    for lo, hi, views in work.blocks:
        _predict_rows(model, X[lo:hi], views, work.pred[lo:hi])
    return work.pred


def _predict_rows(model: TskModel, X: np.ndarray, views, pred) -> None:
    """predict() of the [n, M] rows X as one block, written to pred ([n]);
    the temporaries, the rows' log-grades first, go to views, arrays of
    _block_shapes(model.grid, n).

    The Kronecker product a of the first k = ceil(M / 2) inputs' softmaxes
    ([Ra, n]) and b of the others ([Rb, n]) index rule r = i_a * Rb + i_b,
    the last input varying fastest as in RuleGrid, so the consequents
    reshape to [Ra, Rb * (M + 1)] and sum_r p_r b_r = sum_{i_b} b * (a.T @
    consequents). The output is the row dot of that with (1, x).
    """
    n, cols = X.shape[0], model.num_inputs + 1
    k = (model.num_inputs + 1) // 2
    soft, red, a_buf, b_buf, ab, out = views
    _input_softmax(_log_grades(model, X, out=soft), out=soft, red=red)
    # The factors' partial products (at most Mm^(k-1) <= Rb rows) go to
    # ab's memory, which the contraction writes only after them
    tmp = ab.ravel()
    a, b = _kron(soft[:k], a_buf, tmp), _kron(soft[k:], b_buf, tmp)
    np.matmul(a.T, model.consequents.reshape(a.shape[0], -1), out=ab)
    np.einsum("nb,nbj->nj", b.T, ab.reshape(n, b.shape[0], cols), out=out)
    np.einsum("nm,nm->n", out[:, 1:], X, out=pred)
    pred += out[:, 0]


def _kron(grades: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """[Mm^K, N] row-wise Kronecker product of [K, Mm, N] per-input grades,
    the last input varying fastest along the rule axis: ones of shape
    [1, N] when K = 0, grades[0] itself when K = 1, and otherwise a
    C-ordered array in the leading part of the flat buffer out, whose
    partial products alternate between tmp (room for Mm^(K-1) rows) and
    out so that the last lands in out."""
    k, mm, n = grades.shape
    if k == 0:
        return np.ones((1, n))
    acc = grades[0]
    for m in range(1, k):
        dest = out if (k - 1 - m) % 2 == 0 else tmp
        part = dest[: mm ** (m + 1) * n].reshape(mm**m, mm, n)
        acc = np.multiply(acc[:, None], grades[m], out=part).reshape(mm ** (m + 1), n)
    return acc
