"""Trajectory recording, theorem-style harness reports, and CSV export.

A trajectory is the per-step log of one run: task losses, both weight
vectors, the latest alignment scores, the learning rate and the
gradient-evaluation counters.  On top of it live two empirical checks:

* ``convergence_report`` tracks the running minimum of the worst-task
  suboptimality against a known minimax optimum and fits its decay rate;
* ``variance_monotonicity_check`` looks for a burn-in point after which
  the across-task loss variance never increases.

Export is a plain CSV with stable column names; floats are written with
``repr`` (shortest round-trip decimal), so a re-ingested file reproduces
every value exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestError, ReportError
from .simplex import on_simplex

VARIANCE_TOL = 1e-12

# The per-label vectors of a record, in CSV column order: (record field,
# CSV column prefix, the Trajectory attribute holding the labels).
VECTOR_COLUMNS = (
    ("losses", "loss", "task_labels"),
    ("alpha", "alpha", "domain_labels"),
    ("z", "z", "task_labels"),
    ("task_scores", "a_task", "task_labels"),
    ("domain_scores", "a_domain", "domain_labels"),
)


@dataclass(frozen=True)
class TrajectoryRecord:
    """State snapshot after one training step."""

    step: int
    losses: np.ndarray
    alpha: np.ndarray
    z: np.ndarray
    task_scores: np.ndarray
    domain_scores: np.ndarray
    lr: float
    train_grad_evals: int
    task_grad_evals: int
    domain_grad_evals: int

    def __post_init__(self):
        for name, _, _ in VECTOR_COLUMNS:
            value = np.array(getattr(self, name), dtype=np.float64, copy=True)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def grad_evals(self) -> int:
        return self.train_grad_evals + self.task_grad_evals + self.domain_grad_evals


class Trajectory:
    """An append-only, single-writer sequence of records for one run."""

    def __init__(self, domain_labels, task_labels):
        self.domain_labels = tuple(domain_labels)
        self.task_labels = tuple(task_labels)
        self.records: list[TrajectoryRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: TrajectoryRecord) -> None:
        if self.records and record.step <= self.records[-1].step:
            raise ValueError(f"steps must strictly increase, got {record.step} after {self.records[-1].step}")
        for name, _, labels in VECTOR_COLUMNS:
            if getattr(record, name).shape != (len(getattr(self, labels)),):
                raise ValueError(f"record field {name} has wrong length")
        for name in ("alpha", "z"):
            if not on_simplex(getattr(record, name)):
                raise ValueError(f"record field {name} is not a valid simplex vector")
        self.records.append(record)

    @property
    def steps(self) -> np.ndarray:
        return np.array([r.step for r in self.records], dtype=np.int64)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.losses for r in self.records])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.records])

    @property
    def zs(self) -> np.ndarray:
        return np.array([r.z for r in self.records])

    @property
    def final_counters(self) -> tuple[int, int, int]:
        if not self.records:
            return (0, 0, 0)
        last = self.records[-1]
        return (last.train_grad_evals, last.task_grad_evals, last.domain_grad_evals)


def task_variance(losses) -> float:
    """Population variance (divide by N) of the per-task losses."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 1:
        raise ValueError("need at least one task loss")
    return float(np.var(losses))


def variance_series(trajectory: Trajectory) -> np.ndarray:
    """``task_variance`` of every record's losses, in record order."""
    # shaped (records, tasks) also when there are no records
    losses = trajectory.losses.reshape(len(trajectory), len(trajectory.task_labels))
    return np.var(losses, axis=1)


@dataclass(frozen=True)
class VarianceCheck:
    """Outcome of the variance-monotonicity search."""

    found: bool
    t0: int | None
    max_increase: float


def variance_monotonicity_check(
    trajectory: Trajectory,
    burn_in_fraction: float,
    tol: float = VARIANCE_TOL,
) -> VarianceCheck:
    """Find the earliest recorded step within the burn-in window after
    which the task-loss variance never increases by more than ``tol``.

    Meant for deterministic (full-batch) trajectories, where monotone
    means monotone; on a stochastic trajectory the check simply fails
    and reports the violation rather than erroring.  ``max_increase`` is
    the largest post-t0 increase when found, or the smallest achievable
    violation over candidate starting points when not.
    """
    if not trajectory.records:
        raise ReportError("trajectory has no records")
    steps = trajectory.steps
    variances = variance_series(trajectory)
    diffs = np.diff(variances)
    horizon = burn_in_fraction * steps[-1]
    candidates = np.flatnonzero(steps <= horizon)
    if candidates.size == 0:
        candidates = np.array([0])
    # suffix_max[i] = largest later increase if t0 were placed at record i
    suffix_max = np.full(len(steps), -np.inf)
    if diffs.size:
        suffix_max[:-1] = np.maximum.accumulate(diffs[::-1])[::-1]
    for i in candidates:
        if suffix_max[i] <= tol:
            return VarianceCheck(found=True, t0=int(steps[i]), max_increase=max(float(suffix_max[i]), 0.0))
    best = float(suffix_max[candidates].min())
    return VarianceCheck(found=False, t0=None, max_increase=best)


@dataclass(frozen=True)
class TheoremHarnessReport:
    """Empirical convergence evidence from one trajectory."""

    running_min: np.ndarray
    first_step_within_epsilon: int | None
    fit_slope: float


def convergence_report(trajectory: Trajectory, true_opt: float, epsilon: float = 1e-3) -> TheoremHarnessReport:
    """Measure worst-task suboptimality against a known minimax optimum.

    Reports the running minimum of the worst-task suboptimality, the first
    recorded step with running minimum <= epsilon, and the slope of a
    least-squares fit of log(running min) against log(step) over the final
    half of the run (slope near -1 is the signature of a 1/t decay;
    steeper is faster).
    """
    if not trajectory.records:
        raise ReportError("trajectory has no records")
    steps, losses = trajectory.steps, trajectory.losses
    finite = np.isfinite(losses).all(axis=1)
    if not finite.all():
        raise ReportError(f"record at step {steps[~finite][0]} lacks usable task losses")
    running_min = np.minimum.accumulate(losses.max(axis=1) - true_opt)
    hit = np.flatnonzero(running_min <= epsilon)
    tail = (steps >= steps[-1] / 2) & (steps > 0)
    return TheoremHarnessReport(
        running_min=running_min,
        first_step_within_epsilon=int(steps[hit[0]]) if hit.size else None,
        fit_slope=_loglog_fit(steps[tail], running_min[tail]),
    )


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    if x.size < 2:
        return float("nan")
    log_x = np.log(x.astype(np.float64))
    log_y = np.log(np.maximum(y, 1e-300))
    return float(np.polyfit(log_x, log_y, 1)[0])


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------


def _header(trajectory: Trajectory) -> list[str]:
    columns = ["step"]
    for _, prefix, labels in VECTOR_COLUMNS:
        columns += [f"{prefix}.{label}" for label in getattr(trajectory, labels)]
    return columns + ["lr", "grad_evals"]


def render_trajectory(trajectory: Trajectory) -> str:
    """The CSV text of a trajectory; floats as shortest round-trip decimals."""
    lines = [",".join(_header(trajectory))]
    for r in trajectory.records:
        floats = np.concatenate([getattr(r, name) for name, _, _ in VECTOR_COLUMNS]).tolist() + [float(r.lr)]
        lines.append(",".join([str(r.step), *map(repr, floats), str(r.grad_evals)]))
    return "\n".join(lines) + "\n"


def export_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    """Write one CSV row per record (see render_trajectory)."""
    Path(path).write_text(render_trajectory(trajectory), encoding="utf-8")


def import_trajectory(path: str | Path) -> Trajectory:
    """Re-ingest an exported trajectory.

    Labels are recovered from the header.  The three-way split of the
    gradient-evaluation counter is not part of the format; the total is
    restored into the training counter.  Text that is not UTF-8, and any
    row that does not parse or that ``Trajectory.append`` rejects, raise
    IngestError (with the line number for a row).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"trajectory file is not UTF-8 text: {exc}") from exc
    # (physical line number, fields) of each non-blank line, split lazily to keep peak memory down
    rows = ((lineno, line.split(",")) for lineno, line in enumerate(text.splitlines(), start=1) if line)
    header_line, columns = next(rows, (1, None))
    if columns is None:
        raise IngestError("trajectory file is empty", 1)
    # Each side's labels come from the first vector that side labels.
    labels = {}
    for _, prefix, side in VECTOR_COLUMNS:
        if side not in labels:
            labels[side] = [c[len(prefix) + 1 :] for c in columns if c.startswith(prefix + ".")]
    if not all(labels.values()):
        raise IngestError("header lacks per-task or per-domain columns", header_line)
    trajectory = Trajectory(**labels)
    if columns != _header(trajectory):
        raise IngestError("header does not match the trajectory schema", header_line)

    sizes = [len(getattr(trajectory, side)) for _, _, side in VECTOR_COLUMNS]
    bounds = np.cumsum([0, *sizes]).tolist()
    for lineno, parts in rows:
        if len(parts) != len(columns):
            raise IngestError(f"expected {len(columns)} fields, got {len(parts)}", lineno)
        try:  # a field that is not a number, or a record the trajectory rejects
            values = [float(p) for p in parts[1:-1]]
            row = np.array(values[:-1])
            vectors = {name: row[lo:hi] for (name, _, _), lo, hi in zip(VECTOR_COLUMNS, bounds, bounds[1:])}
            trajectory.append(TrajectoryRecord(step=int(parts[0]), lr=values[-1], train_grad_evals=int(parts[-1]),
                                               task_grad_evals=0, domain_grad_evals=0, **vectors))
        except ValueError as exc:
            raise IngestError(str(exc), lineno) from exc
    return trajectory
