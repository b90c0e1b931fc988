"""One-step learning progress and the loss floor.

``roi`` is the relative loss decrease (l_prev - l_next) / l_prev.  It is
scale-invariant: halving a loss of 10 scores the same as halving a loss
of 0.1.

Denominators are guarded by ``LOSS_FLOOR``: losses below the floor raise
DegenerateLoss, and callers substitute the floor where they need a total
function (near-zero losses occur on easy tasks late in training).
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

