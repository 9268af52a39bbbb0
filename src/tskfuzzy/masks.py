"""Training-time drop masks: DropRule, DropMF and DropMembership.

This module defines the drop variants: their names, the keep shape of one
example under each, and how to draw them. How each variant changes the
forward and the gradient is in model.py and loss.py. The masks
of a batch are rng.random((n, *shape)) <= keep_prob, so keep_prob = 1 keeps
everything while consuming the same random numbers; one example's mask is
sample_masks(variant, grid, 1, keep_prob, rng).keep[0]. At most DRAW_FLOATS
numbers are drawn at once: a batch too large for that is drawn a few rows
at a time, and train() draws the batches of as many iterations as fit in
one call. The rows are outermost, so either way the draws take the
stream's numbers in the same order as one draw of everything.
A batch mask that keeps everything is treated as no mask, so it changes
nothing by construction.
Masks are drawn once per training example and never applied at test time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaskShapeMismatch

# One example's keep shape under each variant: rule [R], mf [M, Mm], membership [R, M]
KEEP_AXES = dict(rule=("num_rules",), mf=("num_inputs", "mfs_per_input"),
                 membership=("num_rules", "num_inputs"))
MAX_RESAMPLES = 16  # redraws of an all-dropped DropRule row before it keeps every rule
DRAW_FLOATS = 2**14  # random floats a mask draw holds at once: 128 kB, or one example's


@dataclass(frozen=True)
class DropMask:
    """Keep/drop decisions for one training example's forward pass, or for
    a whole batch, whose keep carries a leading batch axis (rule [N, R]).

    A dropped rule fires at 0; a dropped MF or membership slot contributes
    grade 1 instead of its Gaussian value. No mask at all is None.
    """

    variant: str
    keep: np.ndarray


def keep_shape(variant: str, grid) -> tuple:
    """One example's keep shape on a grid (anything with num_rules,
    num_inputs and mfs_per_input)."""
    if variant not in KEEP_AXES:
        raise MaskShapeMismatch(f"unknown mask variant {variant!r}")
    return tuple(getattr(grid, axis) for axis in KEEP_AXES[variant])


def sample_masks(variant: str, grid, n: int, keep_prob: float, rng) -> DropMask:
    """The masks of n examples as one DropMask, keep stacked along axis 0.

    An all-dropped DropRule row would zero every firing level of its
    example and leave the output undefined, so it is redrawn in place up
    to MAX_RESAMPLES times and then keeps every rule.
    """
    shape = keep_shape(variant, grid)
    keep = np.empty((n, *shape), dtype=bool)
    rows = max(1, DRAW_FLOATS // math.prod(shape))
    for lo in range(0, n, rows):
        np.less_equal(rng.random((min(rows, n - lo), *shape)), keep_prob, out=keep[lo : lo + rows])
    if variant == "rule":
        for _ in range(MAX_RESAMPLES):
            kept = keep.any(axis=1)
            if kept.all():
                break
            keep[~kept] = rng.random((n - kept.sum(), keep.shape[1])) <= keep_prob
        else:
            keep[~keep.any(axis=1)] = True
    return DropMask(variant, keep)
