"""Regularized batch loss, drop-aware analytic gradients, and a
central-difference gradient oracle.

The loss is 0.5 * sum of squared residuals over the batch plus
(lambda / 2) * sum of squared non-bias consequent coefficients. Summing
(rather than averaging) over the batch means the raw gradient magnitude
scales with the batch size; adaptive per-coordinate learning rates absorb
most of that scale.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyBatch
from .model import TskModel, _forward, _log_floor, _stack_masks, flatten, rule_outputs, unflatten


def loss(model: TskModel, X, y, lam: float = 0.0, masks=None) -> float:
    """Half squared error over the batch plus the l2 consequent penalty.

    Rule biases (consequent column 0) are never penalized. masks is an
    optional batch DropMask, applied as in gradients(); without it this is
    the test-time loss.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if X.shape[0] == 0:
        raise EmptyBatch("loss needs at least one example")
    variant, keep = _stack_masks(model, masks, X.shape[0])
    return _objective(model, y - _forward(model, X, variant, keep).pred, lam)


def _objective(model: TskModel, resid: np.ndarray, lam: float) -> float:
    """The loss value from the batch residuals y - pred."""
    penalty = 0.5 * lam * float(np.sum(model.consequents[:, 1:] ** 2))
    return 0.5 * float(resid @ resid) + penalty


def gradients(model: TskModel, X, y, lam: float = 0.0, masks=None) -> np.ndarray:
    """Analytic gradient of the batch loss, flat and aligned with flatten(model).

    masks is an optional DropMask for the whole batch, its keep array with
    a leading batch axis as the trainer samples it. Firing levels inside
    the chain rule are the masked ones, so a parameter that played no part
    in an example's output gets no contribution from it: dropped rules
    contribute to nothing, and an MF whose grade was replaced by 1 in some
    slot receives no gradient through that slot. The l2 term lam * b is
    added once per batch to every non-bias consequent coefficient,
    independent of the masks.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise EmptyBatch("gradient needs at least one example")
    variant, keep = _stack_masks(model, masks, n)
    fw = _forward(model, X, variant, keep)

    err = fw.pred - y
    # Consequents: err * normalized firing, times (1, x).
    design = np.column_stack([np.ones(n), X])
    grad_b = (err[:, None] * fw.norm_firing).T @ design
    if lam != 0.0:
        grad_b[:, 1:] += lam * model.consequents[:, 1:]

    # MF parameters: V[n, m, i] sums W = err * (rule_out - pred) * normalized
    # firing over the rules whose input-m antecedent is MF i, where kept.
    W = err[:, None] * (rule_outputs(model, X) - fw.pred[:, None]) * fw.norm_firing
    M, Mm = model.num_inputs, model.mfs_per_input
    incidence = model.grid.incidence
    if variant == "membership":
        V = np.einsum("nrm,rmi->nmi", W[:, :, None] * keep, incidence.reshape(-1, M, Mm))
    else:
        V = (W @ incidence).reshape(n, M, Mm)
        if variant == "mf":
            V = np.where(keep, V, 0.0)
    # A log-grade held at its floor is constant and passes back 0; zeroing
    # its distances also keeps an overflowed dx**2 out of the sums.
    with np.errstate(over="ignore"):
        dx = X[:, :, None] - model.centers
        dx2 = dx**2
        floored = dx2 / (2.0 * model.sigmas**2) >= -_log_floor(M)
    dx[floored] = dx2[floored] = 0.0
    grad_c = (V * dx).sum(axis=0) / model.sigmas**2
    grad_s = (V * dx2).sum(axis=0) / model.sigmas**3

    return np.concatenate([grad_c.ravel(), grad_s.ravel(), grad_b.ravel()])


def finite_diff_grad(
    model: TskModel, X, y, lam: float = 0.0, h: float = 1e-6, masks=None
) -> np.ndarray:
    """Central-difference gradient of the loss, one coordinate at a time.

    masks, an optional batch DropMask as in gradients(), is held fixed
    while the parameters move, so this differentiates the same masked loss
    that gradients() differentiates.
    Independent of the analytic path; kept simple on purpose so it can act
    as an oracle. O(h^2) truncation error per coordinate.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    theta = flatten(model)
    M, Mm = model.num_inputs, model.mfs_per_input
    grad = np.empty(theta.size)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        grad[i] = (
            loss(unflatten(plus, M, Mm), X, y, lam, masks)
            - loss(unflatten(minus, M, Mm), X, y, lam, masks)
        ) / (2.0 * h)
    return grad
