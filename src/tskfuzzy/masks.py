"""Training-time drop masks: DropRule, DropMF, and DropMembership sampling.

Every sampler keeps a unit when a fresh uniform draw p satisfies
p <= keep_prob, so keep_prob = 1 keeps everything while still consuming
the same random numbers. Masks are sampled once per training example and
never applied at test time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("none", "rule", "mf", "membership")


@dataclass(frozen=True)
class DropMask:
    """Keep/drop decisions for one training example's forward pass, or for
    a whole batch.

    keep shapes by variant: rule [R], mf [M, Mm], membership [R, M]; a
    batch mask carries a leading batch axis, e.g. rule [N, R].
    A dropped rule fires at 0; a dropped MF or membership slot contributes
    grade 1 instead of its Gaussian value. Variant "none" keeps everything
    and carries no array.
    """

    variant: str
    keep: np.ndarray | None = None

    @staticmethod
    def none() -> "DropMask":
        return DropMask("none", None)


def sample_rule_mask(num_rules: int, keep_prob: float, rng, max_resamples: int = 16) -> DropMask:
    """Keep each rule independently with probability keep_prob.

    An all-dropped mask would zero every firing level and leave the output
    undefined, so it is rejected and redrawn up to max_resamples times,
    after which the mask falls back to all-keep. At practical grid sizes
    the rejection path is essentially never taken.
    """
    for _ in range(max_resamples + 1):
        keep = rng.random(num_rules) <= keep_prob
        if keep.any():
            return DropMask("rule", keep)
    return DropMask("rule", np.ones(num_rules, dtype=bool))


def sample_mf_mask(num_inputs: int, mfs_per_input: int, keep_prob: float, rng) -> DropMask:
    """Keep each shared MF with probability keep_prob.

    A dropped MF grades 1 in every rule that uses it, which removes one
    antecedent factor from all of those rules at once.
    """
    keep = rng.random((num_inputs, mfs_per_input)) <= keep_prob
    return DropMask("mf", keep)


def sample_membership_mask(num_rules: int, num_inputs: int, keep_prob: float, rng) -> DropMask:
    """Keep each (rule, input) membership slot with probability keep_prob.

    Dropping a slot grades 1 in that one rule only, so each drop perturbs
    exactly one firing level.
    """
    keep = rng.random((num_rules, num_inputs)) <= keep_prob
    return DropMask("membership", keep)
