"""Probability-simplex weight vectors and exponentiated-gradient updates.

The reweighting algorithms in this package maintain two probability
vectors: sampling weights over source domains and priority weights over
target tasks.  Both are updated multiplicatively,

    w'_i  propto  w_i * exp(step * score_i),

followed by renormalization, which is the closed-form solution of an
entropy-regularized linear objective on the simplex (online mirror
descent with the KL divergence as the proximity term).  Only the sign
of ``step`` differs between the players: domain weights ascend toward
high scores, task weights descend away from them.  Updates are
computed in log space with max-subtraction so that large
``step * score`` products never overflow, and so that adding a
constant to every score leaves the result unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateWeights, DimensionError, DivergenceUndefined, ScoreError

SIMPLEX_TOL = 1e-9


def on_simplex(values, axis: int = -1) -> bool:
    """True when ``values`` is nonempty and every vector along ``axis`` is >= 0 and
    sums to 1 within ``SIMPLEX_TOL``; stated positively, so NaN and infinity fail it."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum that overflows is infinite, which fails the test
        return bool(values.size and values.min() >= 0.0 and (abs(values.sum(axis=axis) - 1.0) <= SIMPLEX_TOL).all())


def _as_labels(labels: Sequence[str] | None, m: int) -> tuple[str, ...]:
    if labels is None:
        return tuple(f"w{i}" for i in range(m))
    labels = tuple(str(x) for x in labels)
    if len(labels) != m:
        raise DimensionError(f"{len(labels)} labels for {m} weights")
    if len(set(labels)) != m:
        raise DimensionError("weight labels must be unique")
    return labels


@dataclass(frozen=True)
class SimplexWeights:
    """An immutable probability vector with one label per entry.

    Entries are nonnegative and sum to 1 within ``SIMPLEX_TOL``.  Updates
    return new instances; instances are safe to share across threads.
    """

    values: np.ndarray
    labels: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 1 or values.size < 1:
            raise DimensionError("weights must be a nonempty 1-D vector")
        if not on_simplex(values):
            raise DegenerateWeights(f"weights {values.tolist()} are not a probability vector")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", _as_labels(self.labels, values.size))

    @classmethod
    def uniform(cls, labels: Sequence[str] | int) -> "SimplexWeights":
        if isinstance(labels, int):
            labels = [f"w{i}" for i in range(labels)]
        m = len(labels)
        if m < 1:
            raise DimensionError("weights must be a nonempty 1-D vector")
        return cls(np.full(m, 1.0 / m), tuple(labels))

    def save(self, path: str | Path) -> None:
        """Write ``{"labels": [...], "values": [...]}``, the warm-start format."""
        record = {"labels": list(self.labels), "values": [float(v) for v in self.values]}
        Path(path).write_text(json.dumps(record, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SimplexWeights":
        record = json.loads(Path(path).read_text())
        return cls(np.asarray(record["values"], dtype=np.float64), tuple(record["labels"]))


def normalize(raw: Sequence[float] | np.ndarray, labels: Sequence[str] | None = None) -> SimplexWeights:
    """Scale a nonnegative vector to sum to 1.

    Raises DegenerateWeights unless every entry is >= 0 and the total is
    finite and positive; ``SimplexWeights`` checks the result.
    """
    values = np.asarray(raw, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing total is infinite, which the test below rejects
        total = float(values.sum()) if np.all(values >= 0.0) else np.nan  # NaN entries fail both tests
    if not 0.0 < total < np.inf:
        raise DegenerateWeights(f"cannot normalize {values.tolist()}: need entries >= 0 with a finite positive sum")
    return SimplexWeights(values / total, None if labels is None else tuple(labels))


def multiplicative_update(
    w: SimplexWeights,
    scores: Sequence[float] | np.ndarray,
    step: float,
    floor: float = 0.0,
) -> SimplexWeights:
    """Exponentiated-gradient step on the simplex.

    Computes ``w_i * exp(step * score_i)`` and renormalizes: a positive
    ``step`` moves weight toward high scores, a negative one away from
    them, and zero is the identity.  Evaluated in log space with
    max-subtraction: invariant (to ~1e-12) under adding a constant to all
    scores, and overflow-free for any score magnitude.

    Entries that are exactly zero stay zero (a dead entry can never
    revive under a multiplicative update).  An optional ``floor`` clamps
    every entry up to that value after the update and renormalizes; the
    default of 0 applies no floor.
    """
    if not np.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != w.values.shape:
        raise DimensionError(f"scores shape {s.shape} != weights shape {w.values.shape}")
    if not np.all(np.isfinite(s)):
        raise ScoreError("scores contain NaN or Inf")

    if step == 0.0:
        updated = w.values
    else:
        with np.errstate(divide="ignore"):  # log(0) -> -inf keeps dead entries dead
            arg = np.log(w.values) + step * s
        shifted = np.exp(arg - np.max(arg))
        updated = shifted / shifted.sum()

    if floor > 0.0:
        updated = np.maximum(updated, floor)
    return SimplexWeights(updated / updated.sum(), w.labels)  # entries >= 0, or NaN, which it rejects


def bregman_entropy_divergence(p: SimplexWeights, q: SimplexWeights) -> float:
    """KL-type divergence sum_i p_i log(p_i / q_i), with 0 log(0/q) = 0.

    This is the Bregman divergence generated by negative entropy,
    restricted to the simplex; it regularizes how far one update may move
    the weights.  Raises DivergenceUndefined when p puts mass where q has
    none.
    """
    if p.values.shape != q.values.shape:
        raise DimensionError("p and q must have the same length")
    pv, qv = p.values, q.values
    support = pv > 0.0
    if np.any(qv[support] == 0.0):
        raise DivergenceUndefined("p has mass where q is zero")
    return float(np.sum(pv[support] * np.log(pv[support] / qv[support])))
