"""Parameter update rules: plain gradient descent, an adaptive global
learning rate driven by the recent loss pattern, and bounded adaptive
per-coordinate rates (with Adam as the unbounded special case l=0, u=inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import LengthMismatch, NonFiniteGradient

if TYPE_CHECKING:
    from .trainer import TrainConfig


def sgd_step(theta: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """One plain descent step theta - alpha * g, as a new vector."""
    theta = np.array(theta, dtype=float)  # a copy, which _sgd_step updates
    g = np.asarray(g, dtype=float)
    if theta.shape != g.shape:
        raise LengthMismatch(f"theta has shape {theta.shape}, gradient {g.shape}")
    _sgd_step(theta, g, alpha, np.empty_like(g))
    return theta


def _sgd_step(theta: np.ndarray, g: np.ndarray, alpha: float, tmp: np.ndarray) -> None:
    """sgd_step() in place on theta, without its checks; tmp is a scratch
    vector of g's shape."""
    theta -= np.multiply(alpha, g, out=tmp)


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
        # the differences np.diff would take, as Python floats
        d = [b - a for a, b in zip(state.losses, state.losses[1:])]
        if d[0] < 0 and d[1] < 0 and d[2] < 0 and d[3] < 0:
            state.alpha *= 1.1
            state.losses = state.losses[-1:]
        elif d[0] > 0 and d[1] < 0 and d[2] > 0 and d[3] < 0:
            state.alpha *= 0.9
            state.losses = state.losses[-1:]
    return state


@dataclass
class MomentState:
    """First/second moment accumulators and the step counter.

    last_rates holds the realized per-coordinate rates of the most recent
    step (0 before the first); the trainer's mean_lr, min_lr and max_lr
    history curves are read from it.
    """

    m: np.ndarray
    v: np.ndarray
    k: int
    last_rates: np.ndarray

    @staticmethod
    def zeros(dim: int) -> "MomentState":
        """State of dim coordinates, all zero, ready for the in-place step."""
        return MomentState(np.zeros(dim), np.zeros(dim), 0, np.zeros(dim))


def bound_l(k: int, beta2: float, alpha_final: float) -> float:
    """Lower rate bound alpha_final - alpha_final / ((1 - beta2) k + 1); 0 at k = 0.

    Nondecreasing in k and converging to alpha_final from below.
    """
    if k == 0:
        return 0.0
    return alpha_final - alpha_final / ((1.0 - beta2) * k + 1.0)


def bound_u(k: int, beta2: float, alpha_final: float) -> float:
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
    hyper: TrainConfig,
    l: float,
    u: float,
):
    """One bounded adaptive step; returns (new theta, new state).

    alpha, beta1, beta2 and epsilon are read from the TrainConfig hyper.
    Moments are updated, bias-corrected with the post-increment counter k,
    and the per-coordinate rate alpha / (sqrt(v_hat) + epsilon) is clipped
    into [l, u] before scaling the corrected first moment. Passing l=0,
    u=inf makes this exactly an Adam step. state and theta are left as
    they were: the step runs on copies of them.
    """
    theta = np.array(theta, dtype=float)  # a copy, which _adabound_step updates
    g = np.asarray(g, dtype=float)
    if theta.shape != g.shape or state.m.shape != g.shape:
        raise LengthMismatch(
            f"theta {theta.shape}, gradient {g.shape}, state {state.m.shape} must agree"
        )
    if not np.isfinite(g).all():
        bad = np.flatnonzero(~np.isfinite(g))
        raise NonFiniteGradient(f"gradient has non-finite entries at indices {bad[:5]}")
    new = MomentState(
        np.array(state.m, dtype=float), np.array(state.v, dtype=float), state.k, np.empty_like(g)
    )
    _adabound_step(new, theta, g, hyper, l, u, np.empty_like(g))
    return theta, new


def _adabound_step(
    state: MomentState,
    theta: np.ndarray,
    g: np.ndarray,
    hyper: TrainConfig,
    l: float,
    u: float,
    tmp: np.ndarray,
) -> None:
    """adabound_step() in place, without its checks: advances state.k,
    updates state.m, state.v and theta, and writes the rates to
    state.last_rates. theta, g, the moments, last_rates and the scratch
    vector tmp are float arrays of one shape, and g is finite. Each value
    is the same operation on the same operands as in
    theta - rates * m_hat with m = beta1 * m + (1 - beta1) * g and
    v = beta2 * v + (1 - beta2) * g * g, so the bits are those of that
    expression."""
    state.k += 1
    m, v, rates = state.m, state.v, state.last_rates
    m *= hyper.beta1
    m += np.multiply(1.0 - hyper.beta1, g, out=tmp)
    v *= hyper.beta2
    np.multiply(1.0 - hyper.beta2, g, out=tmp)
    tmp *= g
    v += tmp
    m_hat = np.divide(m, 1.0 - hyper.beta1**state.k, out=tmp)
    np.divide(v, 1.0 - hyper.beta2**state.k, out=rates)  # v_hat
    np.sqrt(rates, out=rates)
    rates += hyper.epsilon
    np.divide(hyper.alpha, rates, out=rates)
    np.maximum(rates, l, out=rates)
    np.minimum(rates, u, out=rates)
    m_hat *= rates
    theta -= m_hat
