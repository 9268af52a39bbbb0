"""Grid-partition TSK fuzzy regression systems with Gaussian membership functions.

A system over M inputs holds Mm shared Gaussian MFs per input and one rule
for every point of the Mm^M antecedent grid. Each rule's consequent is an
affine function of the inputs, and the system output is the firing-level
weighted average of the rule consequents.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import _parse_number
from .errors import ConstantFeature, DimensionMismatch, LengthMismatch, MaskShapeMismatch, ParseError
from .masks import DropMask, keep_shape

SIGMA_MIN = 1e-4  # Gaussian width floor, in normalized-feature units
# Smallest sigma a model accepts: the forward divides by 2 sigma^2 and the
# gradient by sigma^3, and neither underflows to 0 from here up.
SIGMA_TINY = np.finfo(float).tiny ** (1 / 3)


@dataclass(frozen=True)
class GaussianMF:
    """One Gaussian membership function with a center and a width sigma > 0."""

    center: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def grade(self, x):
        """Membership grade exp(-(x - center)^2 / (2 sigma^2)), in (0, 1]."""
        x = np.asarray(x, dtype=float)
        g = np.exp(-((x - self.center) ** 2) / (2.0 * self.sigma**2))
        return float(g) if g.ndim == 0 else g


class RuleGrid:
    """Full grid partition: one rule per combination of per-input MF indices.

    Rule r uses MF ``antecedents[r, m]`` for input m; the last input's index
    varies fastest in the enumeration. MFs are shared across rules, so input
    m carries ``mfs_per_input`` Gaussians no matter how many rules use them.
    ``incidence[r, m * mfs_per_input + i]`` is 1.0 when rule r uses MF i of
    input m and 0.0 otherwise.
    """

    def __init__(self, num_inputs: int, mfs_per_input: int):
        if num_inputs < 1 or mfs_per_input < 1:
            raise ValueError("num_inputs and mfs_per_input must both be >= 1")
        self.num_inputs = int(num_inputs)
        self.mfs_per_input = int(mfs_per_input)
        shape = (self.mfs_per_input,) * self.num_inputs
        self.antecedents = np.indices(shape, dtype=np.intp).reshape(self.num_inputs, -1).T
        self.incidence = np.eye(self.mfs_per_input)[self.antecedents].reshape(self.num_rules, -1)

    @property
    def num_rules(self) -> int:
        return self.antecedents.shape[0]

    def rules_using(self, m: int, i: int) -> np.ndarray:
        """Indices of the rules whose antecedent for input m is that input's MF i.

        For a full grid this set always has mfs_per_input^(num_inputs - 1)
        members, and over i it partitions the rule set.
        """
        return np.flatnonzero(self.antecedents[:, m] == i)


class TskModel:
    """Trainable TSK system: a RuleGrid plus its numeric parameters.

    centers, sigmas: [M, Mm] shared Gaussian MF parameters per input.
    consequents: [R, M + 1] affine rule consequents; column 0 is the bias.

    Instances are treated as immutable during inference, so concurrent
    reads are safe; the trainer builds a new model after every step, from
    views into its flat parameter vector (flatten() layout).
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
    n = 2 * num_inputs * mfs_per_input + (num_inputs + 1) * mfs_per_input**num_inputs
    if n > np.iinfo(np.int64).max:
        raise OverflowError(f"parameter count {n} exceeds the supported integer range")
    return n


def init_model(mins, maxs, stds, mfs_per_input: int) -> TskModel:
    """Fresh model from per-input statistics.

    Centers are evenly spaced over each input's [min, max] (endpoints
    included), every width starts at the input's standard deviation, and
    all consequents start at zero.
    """
    mins = np.asarray(mins, dtype=float)
    maxs = np.asarray(maxs, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if not (mins.shape == maxs.shape == stds.shape) or mins.ndim != 1:
        raise ValueError("mins, maxs, stds must be 1-D arrays of equal length")
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
    """init_model with min/max/std taken from the rows of X (sample std)."""
    X = np.asarray(X, dtype=float)
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
    with both at least 1 and a parameter count that fits in int64, for a
    value that is not a finite number and for a sigma below SIGMA_TINY, and
    LengthMismatch for a wrong number of values."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 2:
        raise ParseError(f"{path}: checkpoint must start with 'M=<int>' and 'Mm=<int>' lines")
    for (i, ln), key in zip(lines, ("M=", "Mm=")):
        if not (ln.startswith(key) and ln[len(key) :].lstrip("0").isdecimal()):  # an int >= 1
            raise ParseError(f"{path}, line {i}: expected '{key}<int >= 1>', got {ln!r}")
    num_inputs, mfs_per_input = int(lines[0][1][2:]), int(lines[1][1][3:])
    try:
        param_count(num_inputs, mfs_per_input)
    except OverflowError as exc:
        raise ParseError(f"{path}, line {lines[0][0]}: {exc}, got {lines[0][1]!r}") from exc
    values = [_parse_number(ln) for _, ln in lines[2:]]
    n_mf = num_inputs * mfs_per_input
    for k, v in enumerate(values):
        if v is None or (n_mf <= k < 2 * n_mf and v < SIGMA_TINY):
            i, ln = lines[2 + k]
            wanted = "a finite number" if v is None else f"a sigma >= {SIGMA_TINY:.3g}"
            raise ParseError(f"{path}, line {i}: expected {wanted}, got {ln!r}")
    return unflatten(np.array(values), num_inputs, mfs_per_input)


class Forward(NamedTuple):
    """Outputs of one (possibly masked) batched forward pass."""

    norm_firing: np.ndarray  # [N, R], every row sums to 1
    pred: np.ndarray  # [N]


_FLOAT_MIN, _FLOAT_MAX = np.finfo(float).min, np.finfo(float).max


def _log_floor(num_inputs: int) -> float:
    """Floor of every log-grade: a sum of M of them cannot overflow."""
    return _FLOAT_MIN / (num_inputs + 1)


def _log_grades(model: TskModel, X: np.ndarray, mf_keep=None) -> np.ndarray:
    """[Mm, N, M] log-grades of every MF at every row, floored at
    _log_floor(M), from C-ordered [Mm, M] copies of the parameters so that
    per-input reductions run over the outermost axis. A DropMF keep array
    ([N, M, Mm]) sets a dropped MF's log-grade to 0. Raises
    DimensionMismatch for rows whose width is not M."""
    M = model.num_inputs
    if X.ndim != 2 or X.shape[1] != M:
        raise DimensionMismatch(f"expected rows of width {M}, got array of shape {X.shape}")
    centers = model.centers.T.copy()[:, None]
    sigmas = model.sigmas.T.copy()[:, None]
    log_mu = X - centers
    with np.errstate(over="ignore"):
        np.square(log_mu, out=log_mu)
        np.negative(log_mu, out=log_mu)
        log_mu /= 2.0 * sigmas**2
    np.maximum(log_mu, _log_floor(M), out=log_mu)
    if mf_keep is not None:
        log_mu = np.where(mf_keep.transpose(2, 0, 1), log_mu, 0.0)
    return log_mu


def _input_softmax(model: TskModel, X: np.ndarray, mf_keep=None) -> np.ndarray:
    """[Mm, N, M] softmax of each input's Mm log-grades (as _log_grades,
    with a DropMF keep array) at every row, each shifted by its largest.
    The unmasked or DropMF normalized firing level of a rule is the product
    of the M softmaxes of the MFs it uses."""
    grades = _log_grades(model, X, mf_keep)
    grades -= grades.max(axis=0)
    np.exp(grades, out=grades)
    grades /= grades.sum(axis=0)
    return grades


def _log_firing(
    model: TskModel, X: np.ndarray, variant: str | None = None, keep=None
) -> np.ndarray:
    """[N, R] log firing levels. keep is the stacked per-example keep array.

    Each rule's log firing level is the sum of the log-grades of the M MFs
    it uses, so the [N, M * Mm] log-grades map to log firing levels through
    the transpose of RuleGrid.incidence, the matrix gradients() routes back
    through. The training forward needs them only under DropRule and
    DropMembership. A dropped MF has log-grade 0 and a dropped rule -inf;
    DropMembership, whose substitutions are per rule, gathers the [N, R, M]
    slots and adds them in input order. Log-grades are floored at
    finfo.min / (M + 1), so a row whose squared distances overflow stays
    finite (0 * -inf would be NaN in the product) and a sum of M of them
    cannot overflow.
    """
    M = model.num_inputs
    log_mu = _log_grades(model, X, keep if variant == "mf" else None)
    if variant == "membership":
        slots = log_mu.transpose(1, 2, 0)[:, np.arange(M), model.grid.antecedents]
        slots = np.where(keep, slots, 0.0)
        return sum(slots[:, :, m] for m in range(M))
    incidence = model.grid.incidence
    log_f = log_mu.transpose(1, 2, 0).reshape(-1, incidence.shape[1]) @ incidence.T
    if variant == "rule":
        log_f = np.where(keep, log_f, -np.inf)
    return log_f


def _forward(model: TskModel, X: np.ndarray, variant: str | None = None, keep=None) -> Forward:
    """Batched forward pass. keep is the stacked per-example keep array.

    Normalized firing levels are the softmax of the log firing levels.
    Unmasked or under DropMF, the firing levels of a row sum to the product
    over inputs of each input's summed grades, so the softmax is the product
    of one softmax per input over its Mm log-grades (_input_softmax, as in
    predict()): norm_firing is their row-wise Kronecker product, with no
    log and no [N, R] exp, and every row keeps a dominant rule at >= Mm^-M.
    DropRule and DropMembership change single rules, so their softmax is
    over each [N, R] row of log firing levels, shifted by its maximum.
    Either way a row far from every MF weights its dominant rule(s). The
    output is the row dot of norm_firing @ consequents with (1, x). Raises
    MaskShapeMismatch for a DropRule row that drops every rule, whose
    normalized firing is undefined.

    DropRule shifts the unmasked log firing levels by the largest kept one,
    the row max of log_f - finfo.max * ~keep (a kept entry is unchanged and
    at least M * _log_floor(M) > finfo.min, a dropped one ends at or below
    finfo.min), and multiplies by keep after the exp, so the exp sees only
    finite values: numpy 2.4's AVX-512 exp takes 9-18x the time over a
    [64, 1024] batch whose dropped half holds -inf or -800. Kept rules get
    the same bits as a softmax over -inf entries, dropped ones an exact +0.
    The shifted values are clamped at 0: a dropped rule that dominates the
    kept ones by more than log(finfo.max) would otherwise overflow to inf,
    and inf * 0 is NaN.
    """
    if variant == "rule":
        empty = np.flatnonzero(~keep.any(axis=1))
        if empty.size:
            raise MaskShapeMismatch(f"rule mask of example {empty[0]} drops every rule")
    if variant in (None, "mf"):
        norm_firing = _kron(_input_softmax(model, X, keep))
    else:
        if variant == "rule":
            log_f = _log_firing(model, X)
            with np.errstate(over="ignore"):
                masked = np.multiply(~keep, _FLOAT_MAX)
                log_f -= np.subtract(log_f, masked, out=masked).max(axis=1, keepdims=True)
            norm_firing = np.exp(np.minimum(log_f, 0.0, out=log_f), out=log_f)
            norm_firing *= keep
        else:
            log_f = _log_firing(model, X, variant, keep)
            norm_firing = np.exp(log_f - log_f.max(axis=1, keepdims=True))
        norm_firing /= norm_firing.sum(axis=1, keepdims=True)
    out = norm_firing @ model.consequents
    pred = out[:, 0] + (out[:, 1:] * X).sum(axis=1)
    return Forward(norm_firing, pred)


def _stack_masks(model: TskModel, masks: DropMask | None, n: int):
    """Validate a batch mask and return (variant, keep).

    masks is None or one DropMask whose keep has a leading batch axis of n,
    as the trainer samples them. No mask, and a mask that keeps everything,
    give (None, None), so a no-op mask takes the unmasked path.
    """
    if masks is None:
        return None, None
    if not isinstance(masks, DropMask):
        raise MaskShapeMismatch(f"masks must be one batch DropMask, got {type(masks).__name__}")
    keep = np.asarray(masks.keep, dtype=bool)
    expected = (n, *keep_shape(masks.variant, model.grid))
    if keep.shape != expected:
        raise MaskShapeMismatch(
            f"stacked {masks.variant} masks have shape {keep.shape}, expected {expected}"
        )
    return (None, None) if keep.all() else (masks.variant, keep)


def firing_levels(model: TskModel, x, mask: DropMask | None = None) -> np.ndarray:
    """Firing level of every rule for one input vector, not normalized.

    With a mask, dropped rules fire at 0 while dropped MFs or membership
    slots contribute grade 1 in place of their Gaussian value.
    """
    x = np.asarray(x, dtype=float)
    if mask is not None:
        mask = DropMask(mask.variant, np.asarray(mask.keep)[None])
    variant, keep = _stack_masks(model, mask, 1)
    return np.exp(_log_firing(model, x[None], variant, keep))[0]


def rule_outputs(model: TskModel, x) -> np.ndarray:
    """Affine consequent value of every rule: b_0 + sum_m b_m x_m."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out = model.consequents[:, 0] + np.atleast_2d(x) @ model.consequents[:, 1:].T
    return out[0] if single else out


def predict(model: TskModel, x):
    """System output for one input vector or a batch of rows, unmasked:
    test-time inference never applies drop masks.

    The unmasked normalized firing level of rule r is the product over
    inputs of each input's softmax of its Mm log-grades, so the output
    contracts those per-input grades with the consequents and never forms
    the [N, R] firing matrix. The Kronecker product a of the first
    k = ceil(M / 2) inputs' grades ([N, Ra]) and b of the others ([N, Rb])
    index rule r = i_a * Rb + i_b, the last input varying fastest as in
    RuleGrid, so the consequents reshape to [Ra, Rb * (M + 1)] and
    sum_r p_r b_r = sum_{i_b} b * (a @ consequents). The output is the row
    dot of that with (1, x).
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    grades = _input_softmax(model, X)
    k = (model.num_inputs + 1) // 2
    a, b = _kron(grades[:, :, :k]), _kron(grades[:, :, k:])
    n, cols = X.shape[0], model.num_inputs + 1
    ab = (a @ model.consequents.reshape(a.shape[1], -1)).reshape(n, b.shape[1], cols)
    out = np.einsum("nb,nbj->nj", b, ab)
    pred = out[:, 0] + np.einsum("nm,nm->n", out[:, 1:], X)
    return float(pred[0]) if x.ndim == 1 else pred


def _kron(grades: np.ndarray) -> np.ndarray:
    """[N, Mm^K] row-wise Kronecker product of [Mm, N, K] per-input grades,
    the last input varying fastest; ones of shape [N, 1] when K = 0."""
    mm, n, k = grades.shape
    if k == 0:
        return np.ones((n, 1))
    out = grades[:, :, 0].T
    for m in range(1, k):
        out = (out[:, :, None] * grades[:, None, :, m].T).reshape(n, mm ** (m + 1))
    return out
