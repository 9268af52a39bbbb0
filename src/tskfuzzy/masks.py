"""Training-time drop masks: DropRule, DropMF and DropMembership.

This module is the one place that knows the drop variants: their names,
the keep shape of one example under each, and how to draw them. The masks
of a batch are one rng.random((n, *shape)) <= keep_prob draw, so
keep_prob = 1 keeps everything while consuming the same random numbers;
the per-example samplers are its one-example case. A batch mask that keeps
everything is treated as no mask, so it changes nothing by construction.
Masks are drawn once per training example and never applied at test time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import MaskShapeMismatch

# One example's keep shape under each variant: rule [R], mf [M, Mm], membership [R, M]
KEEP_AXES = dict(rule=("num_rules",), mf=("num_inputs", "mfs_per_input"),
                 membership=("num_rules", "num_inputs"))
MAX_RESAMPLES = 16  # redraws of an all-dropped DropRule row before it keeps every rule


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
    keep = rng.random((n, *keep_shape(variant, grid))) <= keep_prob
    if variant == "rule":
        for _ in range(MAX_RESAMPLES):
            kept = keep.any(axis=1)
            if kept.all():
                break
            keep[~kept] = rng.random((n - kept.sum(), keep.shape[1])) <= keep_prob
        else:
            keep[~keep.any(axis=1)] = True
    return DropMask(variant, keep)


def _one_example(variant: str, keep_prob: float, rng, **sizes) -> DropMask:
    keep = sample_masks(variant, SimpleNamespace(**sizes), 1, keep_prob, rng).keep
    return DropMask(variant, keep[0])


def sample_rule_mask(num_rules: int, keep_prob: float, rng) -> DropMask:
    """Keep each rule with probability keep_prob, redrawing an all-dropped mask."""
    return _one_example("rule", keep_prob, rng, num_rules=num_rules)


def sample_mf_mask(num_inputs: int, mfs_per_input: int, keep_prob: float, rng) -> DropMask:
    """Keep each shared MF with probability keep_prob.

    A dropped MF grades 1 in every rule that uses it, which removes one
    antecedent factor from all of those rules at once.
    """
    return _one_example("mf", keep_prob, rng, num_inputs=num_inputs, mfs_per_input=mfs_per_input)


def sample_membership_mask(num_rules: int, num_inputs: int, keep_prob: float, rng) -> DropMask:
    """Keep each (rule, input) membership slot with probability keep_prob.

    Dropping a slot grades 1 in that one rule only, so each drop perturbs
    exactly one firing level.
    """
    return _one_example("membership", keep_prob, rng, num_rules=num_rules, num_inputs=num_inputs)
