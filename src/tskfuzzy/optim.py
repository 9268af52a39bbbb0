"""Parameter update rules: plain gradient descent, an adaptive global
learning rate driven by the recent loss pattern, and bounded adaptive
per-coordinate rates (with Adam as the unbounded special case l=0, u=inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch, NonFiniteGradient


def sgd_step(theta: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """One plain descent step theta - alpha * g."""
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    if theta.shape != g.shape:
        raise LengthMismatch(f"theta has shape {theta.shape}, gradient {g.shape}")
    return theta - alpha * g


@dataclass
class JangLrState:
    """Global learning rate plus the recent loss window that drives it."""

    alpha: float
    losses: list = field(default_factory=list)


def jang_update_lr(state: JangLrState, new_loss: float) -> JangLrState:
    """Adapt the global rate from the latest loss value.

    Four consecutive decreases multiply alpha by 1.1; two consecutive
    increase-then-decrease pairs multiply it by 0.9. After either trigger
    the observation window resets, so patterns never overlap.
    """
    state.losses.append(float(new_loss))
    if len(state.losses) > 5:
        del state.losses[0]
    if len(state.losses) == 5:
        d = np.diff(state.losses)
        if np.all(d < 0):
            state.alpha *= 1.1
            state.losses = state.losses[-1:]
        elif d[0] > 0 and d[1] < 0 and d[2] > 0 and d[3] < 0:
            state.alpha *= 0.9
            state.losses = state.losses[-1:]
    return state


@dataclass
class AdaBoundHyper:
    """Hyperparameters of the bounded adaptive step.

    alpha_final is the constant the rate bounds converge to; it replaces
    the 0.01 baked into the usual bound formulas.
    """

    alpha: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    alpha_final: float = 0.01


@dataclass
class MomentState:
    """First/second moment accumulators and the step counter.

    last_rates holds the realized per-coordinate rates of the most recent
    step; the trainer's mean_lr, min_lr and max_lr history curves are read
    from it.
    """

    m: np.ndarray
    v: np.ndarray
    k: int = 0
    last_rates: np.ndarray | None = None

    @staticmethod
    def zeros(dim: int) -> "MomentState":
        return MomentState(np.zeros(dim), np.zeros(dim), 0)


def bound_l(k: int, beta2: float = 0.999, alpha_final: float = 0.01) -> float:
    """Lower rate bound alpha_final - alpha_final / ((1 - beta2) k + 1); 0 at k = 0.

    Nondecreasing in k and converging to alpha_final from below.
    """
    if k == 0:
        return 0.0
    return alpha_final - alpha_final / ((1.0 - beta2) * k + 1.0)


def bound_u(k: int, beta2: float = 0.999, alpha_final: float = 0.01) -> float:
    """Upper rate bound alpha_final + alpha_final / ((1 - beta2) k); +inf at k = 0.

    Nonincreasing in k and converging to alpha_final from above.
    """
    if k == 0:
        return np.inf
    return alpha_final + alpha_final / ((1.0 - beta2) * k)


def adabound_step(
    state: MomentState,
    theta: np.ndarray,
    g: np.ndarray,
    hyper: AdaBoundHyper,
    l: float,
    u: float,
):
    """One bounded adaptive step; returns (new theta, new state).

    Moments are updated, bias-corrected with the post-increment counter k,
    and the per-coordinate rate alpha / (sqrt(v_hat) + epsilon) is clipped
    into [l, u] before scaling the corrected first moment. Passing l=0,
    u=inf makes this exactly an Adam step.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    if theta.shape != g.shape or state.m.shape != g.shape:
        raise LengthMismatch(
            f"theta {theta.shape}, gradient {g.shape}, state {state.m.shape} must agree"
        )
    if not np.isfinite(g).all():
        bad = np.flatnonzero(~np.isfinite(g))
        raise NonFiniteGradient(f"gradient has non-finite entries at indices {bad[:5]}")
    k = state.k + 1
    m = hyper.beta1 * state.m + (1.0 - hyper.beta1) * g
    v = hyper.beta2 * state.v + (1.0 - hyper.beta2) * g * g
    m_hat = m / (1.0 - hyper.beta1**k)
    v_hat = v / (1.0 - hyper.beta2**k)
    rates = np.minimum(np.maximum(hyper.alpha / (np.sqrt(v_hat) + hyper.epsilon), l), u)
    return theta - rates * m_hat, MomentState(m, v, k, rates)
