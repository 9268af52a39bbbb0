"""Optimizer steps: plain descent, the loss-pattern learning-rate rule,
rate bounds, and the bounded adaptive step (including its Adam reduction)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tskfuzzy import (
    JangLrState,
    MomentState,
    TrainConfig,
    adabound_step,
    bound_l,
    bound_u,
    jang_update_lr,
    sgd_step,
)
from tskfuzzy.errors import LengthMismatch, NonFiniteGradient
from tskfuzzy.optim import _adabound_step

cfg = TrainConfig()  # the default bound schedule


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        np.testing.assert_array_equal(sgd_step(np.array([1.0, 2.0]), np.zeros(2), 0.01), [1.0, 2.0])

    def test_plain_arithmetic(self):
        np.testing.assert_array_equal(sgd_step(np.array([1.0]), np.array([2.0]), 0.5), [0.0])
        np.testing.assert_allclose(
            sgd_step(np.zeros(2), np.array([1.0, -1.0]), 0.01), [-0.01, 0.01]
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sgd_step(np.zeros(3), np.zeros(2), 0.1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be finite, got "):
            sgd_step(np.zeros(2), np.ones(2), alpha)


class TestJangRule:
    def test_four_decreases_boost(self):
        state = JangLrState(0.01)
        for v in (5.0, 4.0, 3.0, 2.0, 1.0):
            state = jang_update_lr(state, v)
        assert abs(state.alpha - 0.011) < 1e-15

    def test_two_updown_pairs_damp(self):
        state = JangLrState(0.01)
        for v in (1.0, 2.0, 1.5, 2.5, 2.0):
            state = jang_update_lr(state, v)
        assert abs(state.alpha - 0.009) < 1e-15

    def test_monotone_increase_leaves_alpha(self):
        state = JangLrState(0.01)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            state = jang_update_lr(state, v)
        assert state.alpha == 0.01

    def test_window_resets_after_trigger(self):
        """A trigger consumes its window: a fresh run of four decreases is
        needed before the rate moves again."""
        state = JangLrState(0.01)
        for v in (9.0, 8.0, 7.0, 6.0, 5.0):
            state = jang_update_lr(state, v)
        assert abs(state.alpha - 0.011) < 1e-15
        for v in (4.0, 3.0, 2.0):
            state = jang_update_lr(state, v)
        assert abs(state.alpha - 0.011) < 1e-15  # only 3 transitions since reset
        state = jang_update_lr(state, 1.0)
        assert abs(state.alpha - 0.0121) < 1e-15

    def test_plateau_triggers_nothing(self):
        state = JangLrState(0.01)
        for v in (2.0, 2.0, 2.0, 2.0, 2.0, 2.0):
            state = jang_update_lr(state, v)
        assert state.alpha == 0.01


class TestBounds:
    def test_reference_values(self):
        assert abs(bound_l(1000, cfg.beta2, cfg.alpha_final) - 0.005) < 1e-12 * 0.005
        assert abs(bound_u(1000, cfg.beta2, cfg.alpha_final) - 0.02) < 1e-12 * 0.02

    def test_unbounded_at_zero(self):
        assert bound_l(0, cfg.beta2, cfg.alpha_final) == 0.0
        assert bound_u(0, cfg.beta2, cfg.alpha_final) == np.inf

    def test_limits_converge_to_final_rate(self):
        assert abs(bound_l(int(1e12), cfg.beta2, cfg.alpha_final) - 0.01) < 1e-9
        assert abs(bound_u(int(1e12), cfg.beta2, cfg.alpha_final) - 0.01) < 1e-9

    def test_monotone_and_ordered(self):
        ks = np.arange(1, 5001)
        lo = np.array([bound_l(k, cfg.beta2, cfg.alpha_final) for k in ks])
        up = np.array([bound_u(k, cfg.beta2, cfg.alpha_final) for k in ks])
        assert np.all(np.diff(lo) >= 0)
        assert np.all(np.diff(up) <= 0)
        assert np.all(lo < 0.01) and np.all(up > 0.01)

    @given(
        k=st.integers(0, 10**12),
        step=st.integers(1, 10**6),
        beta2=st.floats(0.0, 1.0, exclude_max=True),
        alpha_final=st.floats(1e-8, 10.0),
    )
    def test_monotone_for_any_schedule(self, k, step, beta2, alpha_final):
        assert bound_l(k, beta2, alpha_final) <= bound_l(k + step, beta2, alpha_final)
        assert bound_u(k, beta2, alpha_final) >= bound_u(k + step, beta2, alpha_final)

    def test_custom_final_rate(self):
        assert abs(bound_l(10, 0.9, 1.0) - 0.5) < 1e-12
        assert abs(bound_u(10, 0.9, 1.0) - 2.0) < 1e-12


class TestAdaBoundStep:
    def test_first_step_uses_raw_gradient(self):
        # bias correction makes m_hat equal g at k = 1
        hyper = TrainConfig()
        g = np.array([2.0, -3.0])
        theta, state = adabound_step(MomentState.zeros(2), np.zeros(2), g, hyper, 0.0, np.inf)
        assert state.k == 1
        want = -(hyper.alpha / (np.abs(g) + hyper.epsilon)) * g
        np.testing.assert_array_equal(theta, want)

    def test_zeros_state_takes_the_in_place_step(self):
        """MomentState.zeros holds every vector the in-place step writes,
        last_rates included, so _adabound_step runs on it and gives the
        bits of adabound_step."""
        hyper, g = TrainConfig(), np.array([2.0, -3.0])
        want, stepped = adabound_step(MomentState.zeros(2), np.zeros(2), g, hyper, 0.0, np.inf)
        state, theta = MomentState.zeros(2), np.zeros(2)
        np.testing.assert_array_equal(state.last_rates, [0.0, 0.0])
        _adabound_step(state, theta, g, hyper, 0.0, np.inf, np.empty(2))
        np.testing.assert_array_equal(theta, want)
        np.testing.assert_array_equal(state.last_rates, stepped.last_rates)

    def test_zero_gradient_keeps_theta(self):
        hyper = TrainConfig()
        theta0 = np.array([0.5, -1.5])
        theta, state = adabound_step(MomentState.zeros(2), theta0, np.zeros(2), hyper, 0.0, np.inf)
        np.testing.assert_array_equal(theta, theta0)
        assert np.all(state.v == 0.0)

    def test_rates_respect_bounds(self):
        rng = np.random.default_rng(0)
        hyper = TrainConfig()
        theta = np.zeros(16)
        state = MomentState.zeros(16)
        for _ in range(200):
            g = rng.standard_normal(16) * 10.0 ** rng.integers(-6, 6)
            lo = bound_l(state.k + 1, cfg.beta2, cfg.alpha_final)
            up = bound_u(state.k + 1, cfg.beta2, cfg.alpha_final)
            theta, state = adabound_step(state, theta, g, hyper, lo, up)
            assert np.all(state.last_rates >= lo) and np.all(state.last_rates <= up)

    def test_unbounded_matches_reference_adam(self):
        """With l=0, u=inf the step sequence is bit-identical to a
        straightforwardly coded Adam (per-coordinate effective rate form)
        over a 500-step random gradient stream."""
        rng = np.random.default_rng(1)
        dim = 7
        hyper = TrainConfig(alpha=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
        grads = rng.standard_normal((500, dim)) * 3.0

        theta_ref = np.zeros(dim)
        m = np.zeros(dim)
        v = np.zeros(dim)
        theta = np.zeros(dim)
        state = MomentState.zeros(dim)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            theta_ref = theta_ref - (0.01 / (np.sqrt(v_hat) + 1e-8)) * m_hat
            theta, state = adabound_step(state, theta, g, hyper, 0.0, np.inf)
            np.testing.assert_array_equal(theta, theta_ref)

    def test_rejects_non_finite_gradient(self):
        hyper = TrainConfig()
        with pytest.raises(NonFiniteGradient):
            adabound_step(MomentState.zeros(2), np.zeros(2), np.array([1.0, np.nan]), hyper, 0.0, np.inf)
        with pytest.raises(NonFiniteGradient):
            adabound_step(MomentState.zeros(2), np.zeros(2), np.array([np.inf, 0.0]), hyper, 0.0, np.inf)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match=r"state m \(3,\)"):
            adabound_step(MomentState.zeros(3), np.zeros(2), np.zeros(2), TrainConfig(), 0.0, np.inf)
        state = MomentState(np.zeros(2), np.zeros(3), 0, np.zeros(2))
        with pytest.raises(LengthMismatch, match=r" v \(3,\) must agree"):
            adabound_step(state, np.zeros(2), np.zeros(2), TrainConfig(), 0.0, np.inf)

    @pytest.mark.parametrize(
        "l, u", [(0.5, 0.1), (-0.1, 1.0), (np.nan, 1.0), (0.0, np.nan)],
        ids=["l above u", "negative l", "nan l", "nan u"],
    )
    def test_bounds_out_of_order_rejected(self, l, u):
        with pytest.raises(ValueError, match=r"^rate bounds must satisfy 0 <= l <= u, got l="):
            adabound_step(MomentState.zeros(2), np.zeros(2), np.ones(2), TrainConfig(), l, u)

    def test_deterministic(self):
        hyper = TrainConfig()
        g = np.array([0.3, -0.8, 4.0])
        state = MomentState(np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6, 0.7]), 3, np.zeros(3))
        lo, up = bound_l(4, cfg.beta2, cfg.alpha_final), bound_u(4, cfg.beta2, cfg.alpha_final)
        a1, s1 = adabound_step(state, np.ones(3), g, hyper, lo, up)
        a2, s2 = adabound_step(state, np.ones(3), g, hyper, lo, up)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(s1.m, s2.m)
        np.testing.assert_array_equal(s1.v, s2.v)
