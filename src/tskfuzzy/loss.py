"""Regularized batch loss, drop-aware analytic gradients, and a
central-difference gradient oracle.

The loss is 0.5 * sum of squared residuals over the batch plus
(lambda / 2) * sum of squared non-bias consequent coefficients. Summing
(rather than averaging) over the batch means the raw gradient magnitude
scales with the batch size.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyBatch, LengthMismatch
from .masks import _check_masks
from .model import (
    SIGMA_TINY, TskModel, _forward, _log_floor, _log_grades, _param_views, flatten, predict
)


@np.errstate(over="ignore")
def loss(model: TskModel, X, y, lam: float = 0.0, masks=None) -> float:
    """Half squared error over the batch plus the l2 consequent penalty.

    Rule biases (consequent column 0) are never penalized. masks is an
    optional batch DropMask, applied as in gradients(); without it this is
    the test-time loss, from predict()'s arithmetic.
    """
    X, y = _batch(X, y, "loss")
    variant, keep = _check_masks(masks, model.grid, X.shape[0])
    if variant is None:
        pred = predict(model, X)
    else:
        scratch = np.empty(2 * X.shape[0] * model.num_rules)
        pred = _forward(model, X, variant, keep, _log_grades(model, X), scratch)[1]
    return _objective(model, y - pred, lam)


def _batch(X, y, what: str):
    """X as [N, M] rows and y as [N] targets. Raises EmptyBatch for no rows
    and LengthMismatch unless y has one value per row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if X.shape[0] == 0:
        raise EmptyBatch(f"{what} needs at least one example")
    if y.shape != (X.shape[0],):
        raise LengthMismatch(f"{what} got {X.shape[0]} rows but targets of shape {y.shape}")
    return X, y


def _objective(model: TskModel, resid: np.ndarray, lam: float, sq=None) -> float:
    """The loss value from the batch residuals y - pred. sq, when given, is
    a C-ordered [R, M] array that receives the squared coefficients."""
    sq = np.square(model.consequents[:, 1:], out=sq)
    # np.sum, minus its Python layer
    penalty = 0.5 * lam * float(np.add.reduce(sq, axis=None))
    return 0.5 * float(resid @ resid) + penalty


@np.errstate(over="ignore")
def gradients(model: TskModel, X, y, lam: float = 0.0, masks=None) -> np.ndarray:
    """Analytic gradient of the batch loss, flat and aligned with flatten(model).

    masks is an optional DropMask for the whole batch, its keep array with
    a leading batch axis as the trainer samples it. Firing levels inside
    the chain rule are the masked ones, so a parameter that played no part
    in an example's output gets no contribution from it: dropped rules
    contribute to nothing, and an MF whose grade was replaced by 1 in some
    slot receives no gradient through that slot. The l2 term lam * b is
    added once per batch to every non-bias consequent coefficient,
    independent of the masks. A DropRule row that drops every rule keeps
    every rule, as in masks.draw_masks.
    """
    X, y = _batch(X, y, "gradient")
    n = X.shape[0]
    variant, keep = _check_masks(masks, model.grid, n)
    dist = np.empty((2, n, *model.centers.shape))
    log_mu = _log_grades(model, X, dist=dist)
    design = np.empty((n, X.shape[1] + 1))
    design[:, 0], design[:, 1:] = 1.0, X
    scratch = np.empty(2 * n * model.num_rules)
    out = np.empty(2 * model.centers.size + model.consequents.size)
    return _gradients(model, design, y, lam, variant, keep, log_mu, dist, scratch, out)


def _gradients(
    model: TskModel,
    design: np.ndarray,
    y: np.ndarray,
    lam: float,
    variant,
    keep,
    log_mu: np.ndarray,
    dist: np.ndarray,
    scratch: np.ndarray,
    out: np.ndarray,
    sq=None,
):
    """gradients() without its checks or its np.errstate: design holds the
    batch rows as (1, x), y their targets, variant and keep the batch mask
    as masks._check_masks or masks.draw_masks settle it, log_mu and dist
    the rows' log-grades and [2, n, M, Mm] distances x - c and (x - c)**2 as
    _log_grades(model, X, dist=dist) gives them, and scratch a flat array
    of at least 2 n R floats for the [n, R] arrays, as _forward takes it.
    The gradient is written to out, a flat vector of the parameter count,
    which is returned; dist is overwritten. sq, when given, is a C-ordered
    [R, M] array for the l2 term."""
    X = design[:, 1:]
    n, R = X.shape[0], model.num_rules
    grad_b = _param_views(out, model.grid)[2]
    norm_firing, pred = _forward(model, X, variant, keep, log_mu, scratch)

    err = pred - y
    # Consequents: err * normalized firing, times (1, x). One [n, R] buffer,
    # the half of scratch that _forward's temporaries are done with, holds
    # that product in the memory order of norm_firing (F from _kron), then
    # W in C order: OpenBLAS sums differently for the other order.
    spare = scratch[n * R : 2 * n * R]
    buf = spare.reshape(R, n).T if norm_firing.flags.f_contiguous else spare.reshape(n, R)
    np.multiply(err[:, None], norm_firing, out=buf)
    np.matmul(buf.T, design, out=grad_b)
    if lam != 0.0:
        grad_b[:, 1:] += np.multiply(lam, model.consequents[:, 1:], out=sq)

    # MF parameters: V[n, m, i] sums W = err * (rule_out - pred) * normalized
    # firing over the rules whose input-m antecedent is MF i, where kept.
    W = np.matmul(X, model.consequents[:, 1:].T, out=buf.ravel("K").reshape(buf.shape))
    W += model.consequents[:, 0].copy()  # rule_out; a contiguous bias adds faster
    W -= pred[:, None]
    W *= err[:, None]
    W *= norm_firing
    M, Mm = model.num_inputs, model.mfs_per_input
    incidence = model.grid.incidence
    if variant == "membership":
        V = np.einsum("nrm,rmi->nmi", W[:, :, None] * keep, incidence.reshape(-1, M, Mm))
    else:
        V = (W @ incidence).reshape(n, M, Mm)
        if variant == "mf":
            V = np.where(keep, V, 0.0)
    # A log-grade held at its floor is constant and passes back 0; zeroing
    # its distances also keeps an overflowed (x - c)**2 out of the sums.
    floored = (log_mu == _log_floor(M)).transpose(2, 0, 1)
    if np.logical_or.reduce(floored, axis=None):
        dist[:, floored] = 0.0
    # centers, then sigmas: sum over the rows of V (x - c) / sigma**2 and of
    # V (x - c)**2 / sigma**3, into the two consecutive [M, Mm] parts of out
    powers = np.empty((2, M, Mm))
    np.square(model.sigmas, out=powers[0])
    np.power(model.sigmas, 3, out=powers[1])
    sums = np.add.reduce(np.multiply(dist, V, out=dist), axis=1)
    np.divide(sums, powers, out=out[: 2 * M * Mm].reshape(2, M, Mm))
    return out


def finite_diff_grad(
    model: TskModel, X, y, lam: float = 0.0, h: float = 1e-6, masks=None
) -> np.ndarray:
    """Central-difference gradient of the loss, one coordinate at a time.

    masks, an optional batch DropMask as in gradients(), is held fixed
    while the parameters move, so this differentiates the same masked loss
    that gradients() differentiates.
    Independent of the analytic path; kept simple on purpose so it can act
    as an oracle. O(h^2) truncation error per coordinate. The loss is taken
    of a probe model on the model's grid whose parameters are views of one
    flat copy, stepped in place, so model itself is never written. Raises
    ValueError for an h that is not positive or that takes a sigma below
    SIGMA_TINY.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    smallest = float(model.sigmas.min())
    if not smallest - h >= SIGMA_TINY:
        raise ValueError(f"h={h} takes the smallest sigma, {smallest}, below {SIGMA_TINY:.3g}")
    theta = flatten(model)
    probe = TskModel(model.grid, *_param_views(theta, model.grid))
    grad = np.empty(theta.size)
    for i, value in enumerate(theta.tolist()):
        theta[i] = value + h
        plus = loss(probe, X, y, lam, masks)
        theta[i] = value - h
        grad[i] = (plus - loss(probe, X, y, lam, masks)) / (2.0 * h)
        theta[i] = value
    return grad
