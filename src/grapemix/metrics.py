"""Loss-relative quantities and the loss floor.

``roi`` is the relative loss decrease (l_prev - l_next) / l_prev, and
``normalized_grad`` divides a gradient by its loss.  Both are
scale-invariant: halving a loss of 10 scores the same as halving a loss
of 0.1.

Denominators are guarded by ``LOSS_FLOOR``.  ``roi`` raises
DegenerateLoss below the floor; ``normalized_grad``, which the training
loop runs, clamps the loss at the floor instead, because near-zero
losses occur on easy tasks late in training.
"""

from __future__ import annotations

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


def normalized_grad(grad: np.ndarray, loss: float | np.ndarray) -> np.ndarray:
    """``grad / loss`` (the gradient of log-loss), the loss clamped at LOSS_FLOOR, for one gradient
    or for (R, D) rows and (R,) losses, row by row.  Equalizes tasks of different loss magnitudes."""
    return grad / np.maximum(loss, LOSS_FLOOR)[..., None]
