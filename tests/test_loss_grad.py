"""Loss values, analytic gradients against the finite-difference oracle,
and drop-aware gradient masking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import complex_step_grad
from test_model import FORWARD_CASES, forward, forward_case

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
from tskfuzzy.errors import EmptyBatch, LengthMismatch, MaskShapeMismatch
from tskfuzzy.loss import _gradients
from tskfuzzy.masks import sample_masks
from tskfuzzy.model import _log_floor, _log_grades, _stack_masks


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

    @pytest.mark.parametrize("y", [[1.0], [1.0, 2.0], np.ones((3, 1))])
    def test_targets_not_one_per_row_rejected(self, y):
        """A length-1 y would broadcast over the batch and score it as
        [1, 1, 1]; a length-2 y would fail inside numpy."""
        model = random_model(2, 2, np.random.default_rng(2))
        X = np.zeros((3, 2))
        mask = DropMask("rule", np.ones((3, 4), dtype=bool))
        for call in (loss, gradients):
            for masks in (None, mask):
                with pytest.raises(LengthMismatch, match="3 rows"):
                    call(model, X, y, masks=masks)


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

    @pytest.mark.parametrize("h", [0.0, -1e-6, float("nan")])
    def test_oracle_step_must_be_positive(self, h):
        model = random_model(1, 2, np.random.default_rng(3))
        with pytest.raises(ValueError, match="h must be positive"):
            finite_diff_grad(model, [[0.5]], [1.0], 0.0, h=h)

    def test_oracle_zero_at_zero_loss(self):
        rng = np.random.default_rng(6)
        model = random_model(2, 2, rng)
        model.consequents[:] = 0.0
        X = rng.standard_normal((4, 2))
        fd = finite_diff_grad(model, X, np.zeros(4), 0.0, h=1e-6)
        assert np.max(np.abs(fd)) <= 1e-9


class TestMaskedGradientsAgainstOracle:
    @pytest.mark.parametrize("variant", ["rule", "mf", "membership"])
    def test_matches_the_complex_step(self, variant):
        """Criterion 1's instances and limit, with one drop mask per example
        drawn after the rows, against the complex-step gradient of the
        reference loss (tests/oracle.py), which resolves the coordinates
        with |g| between 1e-8 and 1e-5 that no central-difference step
        does."""
        rng = np.random.default_rng(2024)
        for trial in range(102):
            m = [1, 2, 3][trial % 3]
            lam = 0.05 if trial % 2 else 0.0
            model = random_model(m, 2, rng)
            X = rng.standard_normal((4, m))
            y = rng.standard_normal(4)
            masks = sample_masks(variant, model.grid, 4, TrainConfig.keep_prob, rng)
            g = gradients(model, X, y, lam, masks)
            assert max_mixed_error(g, complex_step_grad(model, X, y, lam, masks)) <= 1e-5, trial

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
        # zero residuals under the forward gradients() itself takes: only the penalty remains
        y = forward(model, X)[1]
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


class TestGradientArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(
        **dict(FORWARD_CASES, n=FORWARD_CASES["n"] | st.sampled_from([16, 33, 64])),
        lam=st.sampled_from([0.0, 0.05]),
    )
    def test_matches_plain_expressions_bit_for_bit(self, m, mm, n, variant, far, seed, lam):
        """gradients() equals the backward written as plain expressions on
        fresh arrays, applied to _forward's own output, bit for bit: the
        consequent gradient (err * nf).T @ (1, x), W = err * (rule outputs -
        pred) * nf, and W routed to the MFs through the incidence matrix
        (or, under DropMembership, the kept slots). Batches of 16 rows and
        more are included: from there OpenBLAS gives different bits for the
        same product when an operand has the other memory order. The
        kernel, given the flat gradient, the [R, M] l2 buffer and the
        [2, n, M, Mm] distance buffer of a training run, fills them with the
        same bits, and the log-grades computed along with the distances are
        _log_grades' own; gradients() returns a new array every call."""
        model, X, keep = forward_case(m, mm, n, variant, far, seed)
        y = np.random.default_rng([seed, 1]).standard_normal(n)
        masks = None if variant is None else DropMask(variant, keep)
        got = gradients(model, X, y, lam, masks)
        assert not np.shares_memory(got, gradients(model, X, y, lam, masks))

        variant, keep = _stack_masks(model, masks, n)
        out, sq = np.full(got.size, np.nan), np.full((model.num_rules, m), np.nan)
        design = np.column_stack([np.ones(n), X])
        scratch = np.empty(2 * n * model.num_rules)
        dist = np.full((2, n, m, mm), np.nan)
        with np.errstate(over="ignore"):
            log_mu = _log_grades(model, X, dist=dist)
            np.testing.assert_array_equal(log_mu, _log_grades(model, X))
            args = (variant, keep, log_mu, dist, scratch, out, sq)
            assert _gradients(model, design, y, lam, *args) is out
            norm, pred = forward(model, X, variant, keep)
        np.testing.assert_array_equal(out, got)
        err = pred - y
        grad_b = (err[:, None] * norm).T @ np.column_stack([np.ones(n), X])
        if lam != 0.0:
            grad_b[:, 1:] += lam * model.consequents[:, 1:]
        W = err[:, None] * (rule_outputs(model, X) - pred[:, None]) * norm
        incidence = model.grid.incidence
        if variant == "membership":
            V = np.einsum("nrm,rmi->nmi", W[:, :, None] * keep, incidence.reshape(-1, m, mm))
        else:
            V = (W @ incidence).reshape(n, m, mm)
            if variant == "mf":
                V = np.where(keep, V, 0.0)
        dx = X[:, :, None] - model.centers
        dx2 = dx**2
        floored = dx2 / (2.0 * model.sigmas**2) >= -_log_floor(m)
        dx[floored] = dx2[floored] = 0.0
        grad_c = (V * dx).sum(axis=0) / model.sigmas**2
        grad_s = (V * dx2).sum(axis=0) / model.sigmas**3
        want = np.concatenate([grad_c.ravel(), grad_s.ravel(), grad_b.ravel()])
        np.testing.assert_array_equal(got, want)


def test_flatten_alignment():
    # the gradient vector lines up with the flattened parameter order
    rng = np.random.default_rng(14)
    model = random_model(2, 2, rng)
    X = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    assert gradients(model, X, y, 0.0).size == flatten(model).size
