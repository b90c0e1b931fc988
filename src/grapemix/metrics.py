"""One-step learning progress and the per-task EMA loss tracker.

``roi`` is the relative loss decrease (l_prev - l_next) / l_prev.  It is
scale-invariant: halving a loss of 10 scores the same as halving a loss
of 0.1.  ``TaskLossState`` holds the exponential moving average of a
task's loss that the ``grape_ema`` scorer divides by.

Denominators are guarded by ``LOSS_FLOOR``: losses below the floor raise
DegenerateLoss, and callers substitute the floor where they need a total
function (near-zero losses occur on easy tasks late in training).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLoss

LOSS_FLOOR = 1e-8


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def roi(l_prev: float, l_next: float) -> float:
    """Relative one-step improvement (l_prev - l_next) / l_prev.

    Positive iff the loss decreased.  Raises DegenerateLoss when l_prev
    is below LOSS_FLOOR.
    """
    l_prev = _check_finite("l_prev", l_prev)
    l_next = _check_finite("l_next", l_next)
    if l_prev < LOSS_FLOOR:
        raise DegenerateLoss(f"l_prev={l_prev!r} is below the loss floor {LOSS_FLOOR}")
    return (l_prev - l_next) / l_prev


@dataclass(frozen=True)
class TaskLossState:
    """Exponentially averaged loss for one task.

    The EMA follows ``ema' = beta * ema + (1 - beta) * observed`` and is
    initialized to the first observation (zero-init would explode any
    EMA-normalized quantity on step one).
    """

    beta: float
    ema_loss: float = float("nan")

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta!r}")

    @property
    def initialized(self) -> bool:
        return np.isfinite(self.ema_loss)


def ema_update(state: TaskLossState, l_obs: float) -> TaskLossState:
    """Fold one observed loss into the tracker, returning a new state."""
    l_obs = _check_finite("l_obs", l_obs)
    if l_obs < 0.0:
        raise ValueError(f"observed loss must be >= 0, got {l_obs!r}")
    if not state.initialized:
        new_ema = l_obs
    else:
        new_ema = state.beta * state.ema_loss + (1.0 - state.beta) * l_obs
    return TaskLossState(beta=state.beta, ema_loss=new_ema)
