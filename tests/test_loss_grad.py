"""Loss values, analytic gradients against the finite-difference oracle,
and drop-aware gradient masking."""

import numpy as np
import pytest

from tskfuzzy import (
    DropMask,
    RuleGrid,
    TrainConfig,
    TskModel,
    finite_diff_grad,
    firing_levels,
    flatten,
    gradients,
    loss,
    predict,
    rule_outputs,
)
from tskfuzzy.errors import EmptyBatch, MaskShapeMismatch
from tskfuzzy.masks import sample_masks


def random_model(num_inputs, mfs_per_input, rng):
    grid = RuleGrid(num_inputs, mfs_per_input)
    return TskModel(
        grid,
        rng.standard_normal((num_inputs, mfs_per_input)),
        rng.uniform(0.5, 2.0, (num_inputs, mfs_per_input)),
        rng.standard_normal((grid.num_rules, num_inputs + 1)),
    )


def max_mixed_error(analytic, oracle, floor=1e-8):
    """Relative error, except coordinates with a tiny oracle value are
    compared absolutely at the same floor."""
    return np.max(np.abs(analytic - oracle) / np.maximum(np.abs(oracle), floor))


class TestLoss:
    def test_zero_at_perfect_fit(self):
        rng = np.random.default_rng(0)
        model = random_model(2, 2, rng)
        model.consequents[:] = 0.0
        X = rng.standard_normal((3, 2))
        assert loss(model, X, np.zeros(3), lam=0.0) == 0.0

    def test_single_example_half_square(self):
        rng = np.random.default_rng(1)
        model = random_model(2, 2, rng)
        x = rng.standard_normal(2)
        y = 1.7
        want = 0.5 * (y - predict(model, x)) ** 2
        assert abs(loss(model, [x], [y], lam=0.0) - want) < 1e-14

    def test_penalty_skips_bias(self):
        # single rule, b = [1, 2], lam = 2: penalty is (2/2) * 2^2 = 4
        grid = RuleGrid(1, 1)
        model = TskModel(grid, [[0.0]], [[1.0]], [[1.0, 2.0]])
        x = np.array([0.4])
        y = predict(model, x)  # zero residual
        assert abs(loss(model, [x], [y], lam=2.0) - 4.0) < 1e-12

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(2)
        model = random_model(1, 2, rng)
        with pytest.raises(EmptyBatch):
            loss(model, np.empty((0, 1)), np.empty(0))
        with pytest.raises(EmptyBatch):
            gradients(model, np.empty((0, 1)), np.empty(0))


class TestGradientsAgainstOracle:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            m = [1, 2, 3][trial % 3]
            lam = 0.05 if trial % 2 else 0.0
            model = random_model(m, 2, rng)
            X = rng.standard_normal((4, m))
            y = rng.standard_normal(4)
            g = gradients(model, X, y, lam)
            fd = finite_diff_grad(model, X, y, lam, h=1e-6)
            assert max_mixed_error(g, fd) <= 1e-5

    def test_consequent_block_is_quadratic(self):
        """With the antecedents fixed, the loss is exactly quadratic in the
        consequents, so central differences are accurate to roundoff."""
        rng = np.random.default_rng(4)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        g = gradients(model, X, y, 0.05)
        fd = finite_diff_grad(model, X, y, 0.05, h=1e-6)
        b_from = 2 * 2 * 2
        assert np.max(np.abs(g[b_from:] - fd[b_from:])) <= 1e-8

    def test_truncation_error_shrinks_quadratically(self):
        """Halving h cuts the central-difference truncation error about
        4x while it still dominates roundoff."""
        rng = np.random.default_rng(5)
        model = random_model(1, 2, rng)
        X = rng.standard_normal((4, 1))
        y = rng.standard_normal(4)
        g = gradients(model, X, y, 0.0)
        err_h = np.linalg.norm(finite_diff_grad(model, X, y, 0.0, h=1e-3) - g)
        err_h2 = np.linalg.norm(finite_diff_grad(model, X, y, 0.0, h=5e-4) - g)
        assert 2.0 < err_h / err_h2 < 8.0

    def test_oracle_zero_at_zero_loss(self):
        rng = np.random.default_rng(6)
        model = random_model(2, 2, rng)
        model.consequents[:] = 0.0
        X = rng.standard_normal((4, 2))
        fd = finite_diff_grad(model, X, np.zeros(4), 0.0, h=1e-6)
        assert np.max(np.abs(fd)) <= 1e-9


class TestMaskedGradientsAgainstOracle:
    @pytest.mark.parametrize("variant", ["rule", "mf", "membership"])
    def test_matches_finite_differences(self, variant):
        """Criterion 1's instances and limit, with one drop mask per example.

        Masks often leave coordinates with |g| between 1e-8 and 1e-5, where
        no single central-difference step meets the mixed 1e-5 limit: at
        h=1e-6 roundoff of the O(1) loss (about eps * loss / h) exceeds it,
        and at h=1e-4 the h^2 truncation term does on sigma coordinates with
        ordinary curvature. Extrapolating the h and 2h differences cancels
        the h^2 term, so a step of 1e-3 can keep roundoff small as well.
        """
        rng = np.random.default_rng(2024)
        h = 1e-3
        for trial in range(102):
            m = [1, 2, 3][trial % 3]
            lam = 0.05 if trial % 2 else 0.0
            model = random_model(m, 2, rng)
            X = rng.standard_normal((4, m))
            y = rng.standard_normal(4)
            masks = sample_masks(variant, model.grid, 4, TrainConfig.keep_prob, rng)
            g = gradients(model, X, y, lam, masks)
            fd = (
                4.0 * finite_diff_grad(model, X, y, lam, h, masks)
                - finite_diff_grad(model, X, y, lam, 2.0 * h, masks)
            ) / 3.0
            assert max_mixed_error(g, fd) <= 1e-5, f"trial {trial}"

    def test_masked_loss_matches_forward(self):
        rng = np.random.default_rng(15)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        keep = np.array([True, False, False, True])
        masks = DropMask("rule", np.tile(keep, (3, 1)))
        pred = []
        for x in X:
            f = firing_levels(model, x, DropMask("rule", keep))
            pred.append(f @ rule_outputs(model, x) / f.sum())
        assert abs(loss(model, X, y, 0.0, masks) - 0.5 * np.sum((y - np.array(pred)) ** 2)) < 1e-12
        keep_all = sample_masks("rule", model.grid, 3, 1.0, rng)
        assert loss(model, X, y, 0.0, keep_all) == loss(model, X, y, 0.0, None)


class TestGradientStructure:
    def test_penalty_only_gradient_is_lam_b(self):
        rng = np.random.default_rng(7)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((4, 2))
        y = predict(model, X)  # zero residuals: only the penalty remains
        g = gradients(model, X, y, lam=0.05)
        n_mf = 2 * 2 * 2
        np.testing.assert_array_equal(g[:n_mf], 0.0)
        grad_b = g[n_mf:].reshape(4, 3)
        np.testing.assert_array_equal(grad_b[:, 0], 0.0)
        np.testing.assert_allclose(grad_b[:, 1:], 0.05 * model.consequents[:, 1:], rtol=1e-12)

    def test_dropped_rule_gets_zero_consequent_grad(self):
        rng = np.random.default_rng(8)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        keep = np.ones(4, dtype=bool)
        keep[2] = False
        masks = DropMask("rule", np.tile(keep, (4, 1)))
        g = gradients(model, X, y, 0.0, masks).reshape(-1)
        n_mf = 2 * 2 * 2
        grad_b = g[n_mf:].reshape(4, 3)
        np.testing.assert_array_equal(grad_b[2], 0.0)

    def test_fully_masked_mf_slot_gets_zero_grad(self):
        """When the membership of MF (m, i) is replaced by 1 in every rule
        that uses it, its center and sigma receive exactly zero gradient."""
        rng = np.random.default_rng(9)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        m_drop, i_drop = 1, 0
        keep = np.ones((4, 2), dtype=bool)
        keep[model.grid.rules_using(m_drop, i_drop), m_drop] = False
        g = gradients(model, X, y, 0.0, DropMask("membership", np.tile(keep, (3, 1, 1))))
        grad_c = g[: 2 * 2].reshape(2, 2)
        grad_s = g[2 * 2 : 2 * 2 * 2].reshape(2, 2)
        assert grad_c[m_drop, i_drop] == 0.0
        assert grad_s[m_drop, i_drop] == 0.0
        assert np.any(grad_c != 0.0)  # other slots still learn

    def test_all_keep_rule_mask_is_bit_exact(self):
        rng = np.random.default_rng(10)
        model = random_model(3, 2, rng)
        X = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        masks = DropMask("rule", np.ones((6, 8), dtype=bool))
        np.testing.assert_array_equal(
            gradients(model, X, y, 0.05, masks), gradients(model, X, y, 0.05)
        )

    def test_batch_additive_without_penalty(self):
        rng = np.random.default_rng(11)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        whole = gradients(model, X, y, 0.0)
        parts = gradients(model, X[:3], y[:3], 0.0) + gradients(model, X[3:], y[3:], 0.0)
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-14)

    def test_gradient_is_finite(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(2, 2, rng)
            X = 5.0 * rng.standard_normal((4, 2))
            y = 10.0 * rng.standard_normal(4)
            assert np.all(np.isfinite(gradients(model, X, y, 0.05)))

    def test_mask_shape_errors(self):
        rng = np.random.default_rng(13)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        with pytest.raises(MaskShapeMismatch):
            gradients(model, X, y, 0.0, DropMask("rule", np.ones((2, 4), bool)))
        with pytest.raises(MaskShapeMismatch):
            gradients(model, X, y, 0.0, DropMask("rule", np.ones((3, 5), bool)))

    def test_per_example_mask_list_rejected(self):
        rng = np.random.default_rng(17)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        masks = [DropMask("rule", np.ones(4, bool))] * 3
        with pytest.raises(MaskShapeMismatch, match="one batch DropMask, got list"):
            gradients(model, X, y, 0.0, masks)

    def test_rule_mask_dropping_every_rule_rejected(self):
        rng = np.random.default_rng(16)
        model = random_model(2, 2, rng)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        keep = np.ones((3, 4), dtype=bool)
        keep[1] = False
        masks = DropMask("rule", keep)
        with pytest.raises(MaskShapeMismatch, match="example 1 drops every rule"):
            gradients(model, X, y, 0.0, masks)
        with pytest.raises(MaskShapeMismatch, match="example 1 drops every rule"):
            loss(model, X, y, 0.0, masks)
        # firing levels are not normalized, so they stay defined
        assert np.all(firing_levels(model, X[1], DropMask("rule", keep[1])) == 0.0)


def test_flatten_alignment():
    # the gradient vector lines up with the flattened parameter order
    rng = np.random.default_rng(14)
    model = random_model(2, 2, rng)
    X = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    assert gradients(model, X, y, 0.0).size == flatten(model).size
