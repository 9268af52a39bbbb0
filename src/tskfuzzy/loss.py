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

from .errors import EmptyBatch, MaskShapeMismatch
from .masks import DropMask
from .model import TskModel, _forward, _mask_shape, flatten, predict, unflatten


def loss(model: TskModel, X, y, lam: float = 0.0, masks=None) -> float:
    """Half squared error over the batch plus the l2 consequent penalty.

    Rule biases (consequent column 0) are never penalized. masks is an
    optional batch mask or sequence of per-example masks, applied as in
    gradients(); without it this is the test-time loss.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if X.shape[0] == 0:
        raise EmptyBatch("loss needs at least one example")
    variant, keep = _stack_masks(model, masks, X.shape[0])
    pred = predict(model, X) if variant == "none" else _forward(model, X, variant, keep).pred
    return _objective(model, y - pred, lam)


def _objective(model: TskModel, resid: np.ndarray, lam: float) -> float:
    """The loss value from the batch residuals y - pred."""
    penalty = 0.5 * lam * float(np.sum(model.consequents[:, 1:] ** 2))
    return 0.5 * float(resid @ resid) + penalty


def _stack_masks(model: TskModel, masks, n: int):
    """Validate a batch's masks and return (variant, keep), keep stacked
    along a leading batch axis.

    masks is either one DropMask whose keep already has the batch axis, as
    the trainer samples them, or a sequence with one DropMask per example.
    """
    if masks is None:
        return "none", None
    if not isinstance(masks, DropMask):
        if len(masks) != n:
            raise MaskShapeMismatch(f"got {len(masks)} masks for a batch of {n}")
        variants = {m.variant for m in masks}
        if len(variants) != 1:
            raise MaskShapeMismatch(f"mixed mask variants in one batch: {sorted(variants)}")
        variant = variants.pop()
        keep = None if variant == "none" else np.stack([np.asarray(m.keep) for m in masks])
        masks = DropMask(variant, keep)
    if masks.variant == "none":
        return "none", None
    keep = np.asarray(masks.keep, dtype=bool)
    expected = (n, *_mask_shape(model, masks.variant))
    if keep.shape != expected:
        raise MaskShapeMismatch(
            f"stacked {masks.variant} masks have shape {keep.shape}, expected {expected}"
        )
    return masks.variant, keep


def gradients(model: TskModel, X, y, lam: float = 0.0, masks=None) -> np.ndarray:
    """Analytic gradient of the batch loss, flat and aligned with flatten(model).

    masks is an optional batch mask (keep with a leading batch axis) or a
    sequence with one DropMask per example. Firing levels inside the chain
    rule are the masked ones, so a parameter that played no part in an
    example's output gets no contribution from it: dropped rules contribute
    to nothing, and an MF whose grade was replaced by 1 in some slot
    receives no gradient through that slot. The l2 term lam * b is added
    once per batch to every non-bias consequent coefficient, independent of
    the masks.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise EmptyBatch("gradient needs at least one example")
    variant, keep = _stack_masks(model, masks, n)
    fw = _forward(model, X, variant, keep)

    A = model.grid.antecedents
    R, M = A.shape
    Mm = model.mfs_per_input

    err = fw.pred - y
    # Consequents: err * normalized firing, times (1, x). Dead rows fall back
    # to the mean of rule outputs, whose consequent gradient is uniform 1/R.
    norm_b = np.where(fw.dead[:, None], 1.0 / R, fw.norm_firing)
    design = np.column_stack([np.ones(n), X])
    grad_b = (err[:, None] * norm_b).T @ design
    if lam != 0.0:
        grad_b[:, 1:] += lam * model.consequents[:, 1:]

    # MF parameters: err * (rule_out - pred) * normalized firing, routed
    # through each active antecedent slot and accumulated into the shared MF,
    # one input at a time. norm_firing is identically zero on dead rows, so
    # they contribute nothing.
    W = err[:, None] * (fw.rule_out - fw.pred[:, None]) * fw.norm_firing
    grad_c = np.empty((M, Mm))
    grad_s = np.empty((M, Mm))
    for m in range(M):
        a = A[:, m]
        sig = model.sigmas[m, a]
        dx = X[:, m, None] - model.centers[m, a]
        slot_c = W * dx / sig**2
        slot_s = W * dx**2 / sig**3
        if variant in ("mf", "membership"):
            active = keep[:, m, a] if variant == "mf" else keep[:, :, m]
            slot_c = np.where(active, slot_c, 0.0)
            slot_s = np.where(active, slot_s, 0.0)
        grad_c[m] = np.bincount(a, weights=slot_c.sum(axis=0), minlength=Mm)
        grad_s[m] = np.bincount(a, weights=slot_s.sum(axis=0), minlength=Mm)

    return np.concatenate([grad_c.ravel(), grad_s.ravel(), grad_b.ravel()])


def finite_diff_grad(
    model: TskModel, X, y, lam: float = 0.0, h: float = 1e-6, masks=None
) -> np.ndarray:
    """Central-difference gradient of the loss, one coordinate at a time.

    masks, if given, is held fixed while the parameters move, so this
    differentiates the same masked loss that gradients() differentiates.
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
