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
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateWeights, DimensionError, DivergenceUndefined, IngestError, ScoreError

SIMPLEX_TOL = 1e-9


def finite_json_number(value) -> bool:
    """True for a parsed JSON number that is finite as a float: not true/false, which parse
    as bool and are no int or float by type, nor 1e400 or an integer beyond float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def simplex_rows(values) -> np.ndarray:
    """The verdict on each vector along the last axis of ``values``: True when its entries
    are >= 0 and sum to 1 within ``SIMPLEX_TOL``; stated positively, so NaN and infinity fail it."""
    values = np.asarray(values, dtype=np.float64)
    # Summed clipped to [-2, 2], so a sum can neither overflow nor meet both infinities and needs no np.errstate
    # (a row with an entry outside fails either way).  The ``clip`` method and the ufunc reduces skip the Python
    # wrappers of ``np.clip``, ``sum`` and ``min``: this verdict runs on every weight update.
    total = np.add.reduce(values.clip(-2.0, 2.0), axis=-1)
    return (np.minimum.reduce(values, axis=-1, initial=np.inf) >= 0.0) & (abs(total - 1.0) <= SIMPLEX_TOL)


def on_simplex(values, axis: int = -1) -> bool:
    """True when ``values`` is nonempty and ``simplex_rows`` accepts every vector along ``axis``."""
    values = np.asarray(values, dtype=np.float64)
    return bool(values.size and simplex_rows(values.swapaxes(axis, -1) if values.ndim > 1 else values).all())


def _as_labels(labels: Sequence[str] | None, m: int) -> tuple[str, ...]:
    if labels is None:
        return tuple(f"w{i}" for i in range(m))
    if isinstance(labels, str):  # a string is a sequence of characters, not of labels
        raise DimensionError(f"weights need labels or a count, not the string {labels!r}")
    labels = tuple(str(x) for x in labels)
    if len(labels) != m:
        raise DimensionError(f"{len(labels)} labels for {m} weights")
    if len(set(labels)) != m:
        raise DimensionError("weight labels must be unique")
    return labels


def _judged(values: np.ndarray) -> np.ndarray:
    """``values`` (1-D, nonempty), made read-only, or DegenerateWeights unless ``simplex_rows`` accepts it."""
    if not simplex_rows(values):
        raise DegenerateWeights(f"weights {values.tolist()} are not a probability vector")
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """An immutable probability vector with one label per entry.

    Entries are nonnegative and sum to 1 within ``SIMPLEX_TOL``.  Updates
    return new instances; instances are safe to share across threads.
    Two instances are equal when their labels are and their values are
    bitwise, and equal instances hash alike.
    """

    values: np.ndarray
    labels: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 1 or values.size < 1:
            raise DimensionError("weights must be a nonempty 1-D vector")
        object.__setattr__(self, "values", _judged(values))
        object.__setattr__(self, "labels", _as_labels(self.labels, values.size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexWeights):
            return NotImplemented
        return self.labels == other.labels and self.values.tobytes() == other.values.tobytes()

    def __hash__(self) -> int:
        return hash((self.labels, self.values.tobytes()))

    @classmethod
    def _over(cls, values: np.ndarray, labels: tuple[str, ...]) -> "SimplexWeights":
        """Weights over ``values``, a fresh 1-D float64 array that nothing else holds, with
        the checked ``labels`` of other weights: judged once, neither copied nor relabelled."""
        weights = object.__new__(cls)
        object.__setattr__(weights, "values", _judged(values))
        object.__setattr__(weights, "labels", labels)
        return weights

    @classmethod
    def uniform(cls, labels: Sequence[str] | int) -> "SimplexWeights":
        """Equal weights over ``labels``, or over ``w0 .. w{labels-1}`` for a count."""
        if isinstance(labels, bool):  # a bool is an int
            raise DimensionError(f"uniform weights need labels or a count, got {labels!r}")
        m = labels if isinstance(labels, int) else len(labels)
        if m < 1:
            raise DimensionError("weights must be a nonempty 1-D vector")
        return cls(np.full(m, 1.0 / m), None if isinstance(labels, int) else labels)

    @cached_property
    def cumulative(self) -> tuple[np.ndarray, int]:
        """``(cumsum(values), last)`` for categorical draws, once per weight vector: a draw at or
        above the total (maybe just under 1) goes to ``last``, the last entry with positive weight."""
        cum = np.cumsum(self.values)
        cum.flags.writeable = False
        return cum, int(np.searchsorted(cum, cum[-1], side="left"))

    def save(self, path: str | Path) -> None:
        """Write ``{"labels": [...], "values": [...]}``, the warm-start format."""
        record = {"labels": list(self.labels), "values": [float(v) for v in self.values]}
        Path(path).write_text(json.dumps(record, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SimplexWeights":
        """Read a ``save`` record.  A value that is not a finite JSON number (numpy
        would read true or "1" as 1.0) or a label that is not a string is an IngestError."""
        record = json.loads(Path(path).read_text())
        values, labels = record["values"], record["labels"]
        if not all(finite_json_number(v) for v in values):
            raise IngestError(f"weight values must be finite JSON numbers, got {values!r}")
        if isinstance(labels, list) and not all(isinstance(label, str) for label in labels):
            raise IngestError(f"weight labels must be JSON strings, got {labels!r}")
        return cls(np.asarray(values, dtype=np.float64), labels)


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
    return SimplexWeights(values / total, labels)


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
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != w.values.shape:
        raise DimensionError(f"scores shape {s.shape} != weights shape {w.values.shape}")
    if not np.isfinite(s).all():
        raise ScoreError("scores contain NaN or Inf")

    if step == 0.0:
        updated = w.values
    else:
        with np.errstate(divide="ignore"):  # log(0) -> -inf keeps dead entries dead
            arg = np.log(w.values) + step * s
        shifted = np.exp(arg - np.maximum.reduce(arg))  # ufunc reduces, as in simplex_rows
        updated = shifted / np.add.reduce(shifted)

    if floor > 0.0:
        updated = np.maximum(updated, floor)
    return SimplexWeights._over(updated / np.add.reduce(updated), w.labels)  # entries >= 0, or NaN, which it rejects


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
