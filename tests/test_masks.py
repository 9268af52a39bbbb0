"""Drop-mask sampling: keep semantics, structural effects, and statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tskfuzzy import (
    DropMask,
    RuleGrid,
    TskModel,
    firing_levels,
    sample_membership_mask,
    sample_mf_mask,
    sample_rule_mask,
)
from tskfuzzy.masks import KEEP_AXES, keep_shape, sample_masks


def _model(rng, num_inputs=2, mfs_per_input=2):
    grid = RuleGrid(num_inputs, mfs_per_input)
    return TskModel(
        grid,
        rng.standard_normal((num_inputs, mfs_per_input)),
        rng.uniform(0.5, 2.0, (num_inputs, mfs_per_input)),
        rng.standard_normal((grid.num_rules, num_inputs + 1)),
    )


def test_keep_prob_one_keeps_everything():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_rule_mask(32, 1.0, rng).keep.all()
        assert sample_mf_mask(5, 2, 1.0, rng).keep.all()
        assert sample_membership_mask(32, 5, 1.0, rng).keep.all()


def test_same_seed_same_stream():
    streams = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        drawn = [sample_rule_mask(8, 0.5, rng).keep for _ in range(50)]
        drawn += [sample_mf_mask(3, 2, 0.5, rng).keep for _ in range(50)]
        drawn += [sample_membership_mask(8, 3, 0.5, rng).keep for _ in range(50)]
        streams.append(np.concatenate([k.ravel() for k in drawn]))
    np.testing.assert_array_equal(streams[0], streams[1])


def test_rule_keep_rate_concentrates():
    """10,000 masks of 32 rules at keep probability 0.5 land well inside
    the 0.5 +/- 0.02 band (3 sigma of a 10,000-trial binomial)."""
    rng = np.random.default_rng(7)
    kept = sum(sample_rule_mask(32, 0.5, rng).keep.sum() for _ in range(10_000))
    assert abs(kept / (10_000 * 32) - 0.5) < 0.02


def test_all_dropped_rule_mask_falls_back_to_all_keep():
    # with an effectively zero keep probability every draw is rejected
    rng = np.random.default_rng(8)
    mask = sample_rule_mask(2, 1e-12, rng)
    assert mask.variant == "rule" and mask.keep.all()


def test_mf_drop_changes_exactly_shared_rule_count():
    """One dropped MF alters the firing level of every rule using it and
    no other: 2^(M-1) rules on a two-input grid."""
    rng = np.random.default_rng(9)
    model = _model(rng)
    x = rng.standard_normal(2)
    base = firing_levels(model, x)
    keep = np.ones((2, 2), dtype=bool)
    keep[1, 0] = False
    masked = firing_levels(model, x, DropMask("mf", keep))
    changed = np.flatnonzero(masked != base)
    expected = model.grid.rules_using(1, 0)
    np.testing.assert_array_equal(changed, expected)
    assert changed.size == 2 ** (2 - 1)


def test_membership_drop_changes_exactly_one_rule():
    rng = np.random.default_rng(10)
    model = _model(rng)
    x = rng.standard_normal(2)
    base = firing_levels(model, x)
    keep = np.ones((4, 2), dtype=bool)
    keep[3, 1] = False
    masked = firing_levels(model, x, DropMask("membership", keep))
    assert np.flatnonzero(masked != base).tolist() == [3]


def test_structural_ordering_of_variants():
    """DropRule removes rules, DropMF perturbs a whole shared-MF slice,
    DropMembership perturbs a single rule."""
    rng = np.random.default_rng(11)
    model = _model(rng)
    x = rng.standard_normal(2)
    base = firing_levels(model, x)

    rule = firing_levels(model, x, DropMask("rule", np.array([True, False, True, True])))
    assert (rule == 0.0).sum() == 1 and (base == 0.0).sum() == 0

    keep_mf = np.ones((2, 2), dtype=bool)
    keep_mf[0, 1] = False
    mf = firing_levels(model, x, DropMask("mf", keep_mf))
    assert np.sum(mf != base) == 2

    keep_slot = np.ones((4, 2), dtype=bool)
    keep_slot[1, 0] = False
    slot = firing_levels(model, x, DropMask("membership", keep_slot))
    assert np.sum(slot != base) == 1


def test_mf_and_membership_keep_rates():
    rng = np.random.default_rng(12)
    kept = sum(sample_mf_mask(2, 2, 0.3, rng).keep.sum() for _ in range(2500))
    n = 2500 * 4
    assert abs(kept / n - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n)
    kept = sum(sample_membership_mask(4, 2, 0.7, rng).keep.sum() for _ in range(1250))
    n = 1250 * 8
    assert abs(kept / n - 0.7) < 3 * np.sqrt(0.7 * 0.3 / n)


PER_EXAMPLE = {
    "rule": lambda model, p, rng: sample_rule_mask(model.num_rules, p, rng),
    "mf": lambda model, p, rng: sample_mf_mask(model.num_inputs, model.mfs_per_input, p, rng),
    "membership": lambda model, p, rng: sample_membership_mask(
        model.num_rules, model.num_inputs, p, rng
    ),
}


def reference_rule_mask(num_rules, keep_prob, rng):
    """The per-example DropRule draw written out: draw, and redraw an
    all-dropped mask up to 16 times before keeping every rule."""
    for _ in range(17):
        keep = rng.random(num_rules) <= keep_prob
        if keep.any():
            return keep
    return np.ones(num_rules, dtype=bool)


@settings(max_examples=100, deadline=None)
@given(
    num_rules=st.sampled_from([1, 2, 4, 8, 32]),
    shape=st.sampled_from([(1, 1), (2, 3), (5, 2)]),
    keep_prob=st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_example_streams_match_written_out_draws(num_rules, shape, keep_prob, seed):
    """Every per-example sampler draws what its definition says, from the
    same stream positions: rule masks with their redraws and all-keep
    fallback, MF and membership masks as one draw each."""
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for _ in range(5):
        np.testing.assert_array_equal(
            sample_rule_mask(num_rules, keep_prob, rng).keep,
            reference_rule_mask(num_rules, keep_prob, ref),
        )
        np.testing.assert_array_equal(
            sample_mf_mask(*shape, keep_prob, rng).keep, ref.random(shape) <= keep_prob
        )
        np.testing.assert_array_equal(
            sample_membership_mask(num_rules, shape[0], keep_prob, rng).keep,
            ref.random((num_rules, shape[0])) <= keep_prob,
        )
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(KEEP_AXES)),
    grid=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (5, 2)]),
    n=st.integers(1, 40),
    keep_prob=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_draw_equals_per_example_draws(variant, grid, n, keep_prob, seed):
    """Unless a DropRule row is redrawn, the one-call batch draw gives the
    masks of n sequential per-example draws bit for bit and leaves the
    stream in the same state."""
    model = _model(np.random.default_rng(0), *grid)
    first = np.random.default_rng(seed).random((n, *keep_shape(variant, model.grid)))
    if variant == "rule" and not (first <= keep_prob).any(axis=1).all():
        return  # a redrawn row: test_all_dropped_rule_rows_are_redrawn_in_place
    batch_rng = np.random.default_rng(seed)
    seq_rng = np.random.default_rng(seed)
    mask = sample_masks(variant, model.grid, n, keep_prob, batch_rng)
    expected = np.stack([PER_EXAMPLE[variant](model, keep_prob, seq_rng).keep for _ in range(n)])
    assert mask.variant == variant
    assert mask.keep.dtype == bool
    np.testing.assert_array_equal(mask.keep, expected)
    assert batch_rng.bit_generator.state == seq_rng.bit_generator.state


@pytest.mark.parametrize(
    "grid, keep_prob, seed",
    [((1, 1), 0.3, 0), ((1, 2), 0.1, 1), ((2, 2), 0.3, 2), ((2, 2), 0.0, 3)],
)
def test_all_dropped_rule_rows_are_redrawn_in_place(grid, keep_prob, seed):
    """On 1, 2 and 4 rules at low keep probabilities many rows come out
    all-dropped. Each is redrawn in place, so no row drops every rule,
    keep probability 0 keeps every rule, the rows that were not redrawn
    are those of the first draw, and the masks depend only on the seed."""
    grid = RuleGrid(*grid)
    n = 30
    first = np.random.default_rng(seed).random((n, grid.num_rules)) <= keep_prob
    redrawn = ~first.any(axis=1)
    assert redrawn.any()
    keep = sample_masks("rule", grid, n, keep_prob, np.random.default_rng(seed)).keep
    assert keep.any(axis=1).all()
    if keep_prob == 0.0:
        assert keep.all()
    np.testing.assert_array_equal(keep[~redrawn], first[~redrawn])
    again = sample_masks("rule", grid, n, keep_prob, np.random.default_rng(seed)).keep
    np.testing.assert_array_equal(keep, again)
