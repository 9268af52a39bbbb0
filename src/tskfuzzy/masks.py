"""Training-time drop masks: DropRule, DropMF and DropMembership.

This module defines the drop variants: their names, the keep shape of one
example under each, and how to draw them. How each variant changes the
forward and the gradient is in model.py and loss.py. The masks of a batch
are rng.random((n, *shape)) <= keep_prob, so keep_prob = 1 keeps
everything while consuming the same random numbers; a DropRule row that
drops every rule, whose output would be undefined, keeps every rule. So a
batch takes n * prod(shape) numbers in row order, however the rng.random
calls are cut, and one example's mask is sample_masks(variant, grid, 1,
keep_prob, rng).keep[0]. draw_masks draws for sample_masks and train().
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
    """The masks of n examples as one DropMask, keep stacked along axis 0;
    a DropRule row that drops every rule keeps every rule."""
    keep = next(draw_masks(variant, grid, n, keep_prob, rng, 1))[1]
    if keep is None:  # keeps everything
        keep = np.ones((n, *keep_shape(variant, grid)), dtype=bool)
    return DropMask(variant, keep)


def draw_masks(variant: str, grid, n: int, keep_prob: float, rng, batches: int):
    """Yield (variant, keep) for each of batches batch masks of n examples,
    or (None, None) for one that keeps everything. The masks of as many
    batches as fit in DRAW_FLOATS are one block, drawn with one rng.random
    call and tested for keeping everything with one reduction; a batch too
    large for that is a block of its own, drawn a few rows at a time. Each
    keep is a view of its block, which is released before the next block
    is drawn, so no mask is held through the next draw."""
    shape = keep_shape(variant, grid)
    size = math.prod(shape)
    rows = max(1, DRAW_FLOATS // size)  # examples per rng.random call
    step = max(1, rows // max(n, 1))  # batches per block
    for lo in range(0, batches, step):
        count = min(step, batches - lo)
        block = np.empty((count * n, *shape), dtype=bool)
        for i in range(0, count * n, rows):
            np.less_equal(rng.random(block[i : i + rows].shape), keep_prob, out=block[i : i + rows])
        if variant == "rule":
            block[~np.logical_or.reduce(block, axis=1)] = True
        full = np.logical_and.reduce(block.reshape(count, n * size), axis=1)
        for k in range(count):
            yield (None, None) if full[k] else (variant, block[k * n : (k + 1) * n])
        del block  # hold no mask through the next draw
