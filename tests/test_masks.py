"""Drop-mask sampling: keep semantics, structural effects, and statistics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tskfuzzy import DropMask, RuleGrid, TskModel, firing_levels, sample_masks
from tskfuzzy.errors import MaskShapeMismatch
from tskfuzzy.masks import DRAW_FLOATS, KEEP_AXES, draw_masks, keep_shape


def _model(rng, num_inputs=2, mfs_per_input=2):
    grid = RuleGrid(num_inputs, mfs_per_input)
    return TskModel(
        grid,
        rng.standard_normal((num_inputs, mfs_per_input)),
        rng.uniform(0.5, 2.0, (num_inputs, mfs_per_input)),
        rng.standard_normal((grid.num_rules, num_inputs + 1)),
    )


def one_mask(variant, grid, keep_prob, rng):
    """One example's keep array: the batch draw of a single example."""
    return sample_masks(variant, grid, 1, keep_prob, rng).keep[0]


def test_unknown_variant_has_no_keep_shape():
    with pytest.raises(MaskShapeMismatch, match="unknown mask variant 'dropout'"):
        keep_shape("dropout", RuleGrid(2, 2))


def test_keep_prob_one_keeps_everything():
    rng = np.random.default_rng(0)
    grid = RuleGrid(5, 2)  # 32 rules
    for _ in range(20):
        for variant in ("rule", "mf", "membership"):
            assert one_mask(variant, grid, 1.0, rng).all()


def test_same_seed_same_stream():
    streams = []
    grid = RuleGrid(3, 2)  # 8 rules
    for _ in range(2):
        rng = np.random.default_rng(1234)
        drawn = [one_mask(v, grid, 0.5, rng) for v in ("rule", "mf", "membership") for _ in range(50)]
        streams.append(np.concatenate([k.ravel() for k in drawn]))
    np.testing.assert_array_equal(streams[0], streams[1])


def test_rule_keep_rate_concentrates():
    """10,000 masks of 32 rules at keep probability 0.5 land well inside
    the 0.5 +/- 0.02 band (3 sigma of a 10,000-trial binomial)."""
    rng = np.random.default_rng(7)
    grid = RuleGrid(5, 2)  # 32 rules
    kept = sum(one_mask("rule", grid, 0.5, rng).sum() for _ in range(10_000))
    assert abs(kept / (10_000 * 32) - 0.5) < 0.02


def test_all_dropped_rule_mask_falls_back_to_all_keep():
    # with an effectively zero keep probability the draw drops every rule
    rng = np.random.default_rng(8)
    mask = sample_masks("rule", RuleGrid(1, 2), 1, 1e-12, rng)
    assert mask.variant == "rule" and mask.keep.shape == (1, 2) and mask.keep.all()


@pytest.mark.parametrize("variant", list(KEEP_AXES))
def test_empty_batch_takes_no_numbers(variant):
    """A batch of no examples is an empty [0, *shape] keep, train()'s
    generator gives (None, None) for each such batch, and neither takes a
    number from the stream."""
    grid = RuleGrid(3, 2)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    keep = sample_masks(variant, grid, 0, 0.5, rng).keep
    assert keep.shape == (0, *keep_shape(variant, grid)) and keep.dtype == bool
    assert list(draw_masks(variant, grid, 0, 0.5, rng, 3)) == [(None, None)] * 3
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "n, keep_prob, message",
    [
        (-1, 0.5, "n must be a non-negative integer, got -1"),
        (2.0, 0.5, "n must be a non-negative integer, got 2.0"),
        (True, 0.5, "n must be a non-negative integer, got True"),
        ("3", 0.5, "n must be a non-negative integer, got '3'"),
        (3, float("nan"), r"keep_prob must be in \[0, 1\], got nan"),
        (3, -0.1, r"keep_prob must be in \[0, 1\], got -0.1"),
        (3, 1.5, r"keep_prob must be in \[0, 1\], got 1.5"),
    ],
)
def test_bad_sample_arguments_rejected(n, keep_prob, message):
    """A NaN keep_prob would drop every MF, and a negative n end in
    numpy's negative dimensions; neither takes a number from the stream."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for variant in KEEP_AXES:
        with pytest.raises(ValueError, match=message):
            sample_masks(variant, RuleGrid(2, 2), n, keep_prob, rng)
    assert rng.bit_generator.state == state


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
    expected = np.flatnonzero(model.grid.antecedents[:, 1] == 0)
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
    grid = RuleGrid(2, 2)  # 4 rules
    kept = sum(one_mask("mf", grid, 0.3, rng).sum() for _ in range(2500))
    n = 2500 * 4
    assert abs(kept / n - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n)
    kept = sum(one_mask("membership", grid, 0.7, rng).sum() for _ in range(1250))
    n = 1250 * 8
    assert abs(kept / n - 0.7) < 3 * np.sqrt(0.7 * 0.3 / n)


def reference_rule_mask(num_rules, keep_prob, rng):
    """The per-example DropRule draw written out: one draw, and an
    all-dropped mask keeps every rule."""
    keep = rng.random(num_rules) <= keep_prob
    return keep if keep.any() else np.ones(num_rules, dtype=bool)


@settings(max_examples=100, deadline=None)
@given(
    num_rules=st.sampled_from([1, 2, 4, 8, 32]),
    shape=st.sampled_from([(1, 1), (2, 3), (5, 2)]),
    keep_prob=st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_example_streams_match_written_out_draws(num_rules, shape, keep_prob, seed):
    """A one-example draw of each variant is what its definition says, from
    the same stream positions: one draw each, and a rule mask that drops
    every rule keeps every rule. The sizes need not come from one grid, so
    they are given as a namespace."""
    sizes = SimpleNamespace(num_rules=num_rules, num_inputs=shape[0], mfs_per_input=shape[1])
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for _ in range(5):
        np.testing.assert_array_equal(
            one_mask("rule", sizes, keep_prob, rng),
            reference_rule_mask(num_rules, keep_prob, ref),
        )
        np.testing.assert_array_equal(
            one_mask("mf", sizes, keep_prob, rng), ref.random(shape) <= keep_prob
        )
        np.testing.assert_array_equal(
            one_mask("membership", sizes, keep_prob, rng),
            ref.random((num_rules, shape[0])) <= keep_prob,
        )
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(KEEP_AXES)),
    grid=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (5, 2), (5, 4)]),
    n=st.integers(1, 40),
    keep_prob=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_draw_equals_per_example_draws(variant, grid, n, keep_prob, seed):
    """The batch draw gives the masks of n sequential one-example draws bit
    for bit and leaves the stream in the same state, all-dropped DropRule
    rows included. At M=5, Mm=4 (R=1024) it draws 16 DropRule rows or 3
    DropMembership rows at a time."""
    model = _model(np.random.default_rng(0), *grid)
    batch_rng = np.random.default_rng(seed)
    seq_rng = np.random.default_rng(seed)
    mask = sample_masks(variant, model.grid, n, keep_prob, batch_rng)
    expected = np.stack([one_mask(variant, model.grid, keep_prob, seq_rng) for _ in range(n)])
    assert mask.variant == variant
    assert mask.keep.dtype == bool
    np.testing.assert_array_equal(mask.keep, expected)
    assert batch_rng.bit_generator.state == seq_rng.bit_generator.state


@pytest.mark.parametrize(
    "grid, keep_prob, seed",
    [((1, 1), 0.3, 0), ((1, 2), 0.1, 1), ((2, 2), 0.3, 2), ((2, 2), 0.0, 3)],
)
def test_all_dropped_rule_rows_keep_every_rule(grid, keep_prob, seed):
    """On 1, 2 and 4 rules at low keep probabilities many rows come out
    all-dropped. Each keeps every rule instead, the other rows are those of
    the one draw, keep probability 0 keeps every rule, and the batch takes
    exactly n * R numbers from the stream."""
    grid = RuleGrid(*grid)
    n = 30
    ref = np.random.default_rng(seed)
    first = ref.random((n, grid.num_rules)) <= keep_prob
    dropped = ~first.any(axis=1)
    assert dropped.any()
    rng = np.random.default_rng(seed)
    keep = sample_masks("rule", grid, n, keep_prob, rng).keep
    assert keep[dropped].all()
    np.testing.assert_array_equal(keep[~dropped], first[~dropped])
    if keep_prob == 0.0:
        assert keep.all()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("variant", list(KEEP_AXES))
@pytest.mark.parametrize(
    "grid, n, keep_prob, iterations",
    [
        pytest.param((1, 2), 8, 0.5, 50, id="2-rules"),
        pytest.param((5, 2), 64, 0.5, 21, id="32-rules"),
        pytest.param((5, 2), 64, 1.0, 10, id="32-rules-keep-all"),
        pytest.param((5, 4), 64, 0.5, 3, id="1024-rules"),
    ],
)
def test_block_draws_equal_per_iteration_draws(variant, grid, n, keep_prob, iterations):
    """train()'s masks, drawn for as many iterations as fit in DRAW_FLOATS
    at once, are bit for bit those of one sample_masks call per iteration,
    a mask that keeps everything comes as (None, None), and the generator
    ends in the same state. On 2 rules at keep 0.5 a quarter of the
    DropRule rows drop every rule, and the block is still one rng.random
    call; at R=1024 only one iteration fits, and each is drawn a few rows
    at a time."""
    grid = RuleGrid(*grid)
    size = math.prod(keep_shape(variant, grid))
    per_block = DRAW_FLOATS // (n * size)
    first = np.random.default_rng(11).random((min(per_block, iterations), n, size)) <= keep_prob
    dropped = variant == "rule" and not first.any(axis=2).all()
    assert dropped == (variant == "rule" and grid.num_rules == 2)
    block_rng, seq_rng = np.random.default_rng(11), np.random.default_rng(11)
    sizes = []  # numbers taken by each rng.random call
    counted = SimpleNamespace(
        random=lambda shape: sizes.append(math.prod(shape)) or block_rng.random(shape)
    )

    got = list(draw_masks(variant, grid, n, keep_prob, counted, iterations))
    assert len(got) == iterations
    for drop, keep in got:
        want = sample_masks(variant, grid, n, keep_prob, seq_rng).keep
        if want.all():
            assert (drop, keep) == (None, None)
        else:
            assert drop == variant
            np.testing.assert_array_equal(keep, want)
    assert block_rng.bit_generator.state == seq_rng.bit_generator.state
    calls = (math.ceil(iterations / per_block) if per_block
             else iterations * math.ceil(n / (DRAW_FLOATS // size)))
    assert len(sizes) == calls and max(sizes) <= DRAW_FLOATS
